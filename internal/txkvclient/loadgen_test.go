package txkvclient_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
)

func startServer(t *testing.T, kind string, keys int) *txkvserver.Server {
	t.Helper()
	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine: harness.EngineSpec{Kind: kind, Manager: "polka"},
		Keys:   keys,
	})
	if err != nil {
		t.Fatalf("start %s server: %v", kind, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// bothModes runs a load test over synchronous and pipelined connections:
// one worker, two issue loops, the same expectations.
func bothModes(t *testing.T, test func(t *testing.T, pipeline int)) {
	for _, pipeline := range []int{0, 8} {
		t.Run(fmt.Sprintf("pipeline=%d", pipeline), func(t *testing.T) { test(t, pipeline) })
	}
}

// TestClosedLoop runs a short seeded closed-loop transfer load and
// checks the measurement is fully populated and the oracles are green.
func TestClosedLoop(t *testing.T) { bothModes(t, testClosedLoop) }

func testClosedLoop(t *testing.T, pipeline int) {
	srv := startServer(t, "swisstm", 512)
	res, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr:  srv.Addr().String(),
		Mix:   txkv.TransferMix,
		Conns: 2,
		Keys:  512,
		Zipf:  0.9,
		Seed:  1,
		Ops:   600,

		Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" || res.Offered != 0 {
		t.Fatalf("mode: %+v", res)
	}
	if res.Ops != 600 {
		t.Fatalf("completed %d ops, want 600", res.Ops)
	}
	if res.OracleErr != nil {
		t.Fatalf("oracle: %v", res.OracleErr)
	}
	if res.P50Ns <= 0 || res.P99Ns < res.P50Ns || res.P999Ns < res.P99Ns {
		t.Fatalf("latency percentiles not ordered/positive: %+v", res)
	}
	if res.Achieved <= 0 {
		t.Fatalf("achieved rate %v", res.Achieved)
	}
	// The server saw at least one request per op (CAS ops issue two) and
	// measured non-zero txn and reply phases.
	if res.Server.Requests < res.Ops {
		t.Fatalf("server saw %d requests for %d ops", res.Server.Requests, res.Ops)
	}
	if res.Server.TxnNs == 0 || res.Server.ReplyNs == 0 || res.Server.Commits == 0 {
		t.Fatalf("server phase counters empty: %+v", res.Server)
	}

	rec := res.Record("txkvload", "txkvsrv/transfer-zipf-closed", srv.Engine(), "swisstm", 2, 0, 1)
	if rec.LatP50Ns <= 0 || rec.LatP99Ns <= 0 || rec.LatP999Ns <= 0 {
		t.Fatalf("record percentiles empty: %+v", rec)
	}
	if rec.PhaseTxnNs <= 0 || rec.PhaseReplyNs <= 0 {
		t.Fatalf("record phase means empty: %+v", rec)
	}
	if !rec.CheckedOK || rec.Throughput <= 0 {
		t.Fatalf("record not green: %+v", rec)
	}
}

// TestOpenLoop runs a fixed-arrival-rate load and checks the offered vs
// achieved accounting.
func TestOpenLoop(t *testing.T) { bothModes(t, testOpenLoop) }

func testOpenLoop(t *testing.T, pipeline int) {
	srv := startServer(t, "tl2", 256)
	const rate = 2000.0
	res, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr:  srv.Addr().String(),
		Mix:   txkv.ReadHeavy,
		Conns: 2,
		Keys:  256,
		Seed:  7,
		Ops:   400,
		Rate:  rate,

		Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" || res.Offered != rate {
		t.Fatalf("open-loop accounting: %+v", res)
	}
	if res.Ops != 400 {
		t.Fatalf("completed %d ops, want 400", res.Ops)
	}
	if res.OracleErr != nil {
		t.Fatalf("oracle: %v", res.OracleErr)
	}
	// 400 ops at 2000/s is ~200ms of schedule; the run can't finish
	// faster than the arrival process.
	if res.Duration < 150*time.Millisecond {
		t.Fatalf("open-loop run finished before its schedule: %v", res.Duration)
	}
	if res.Achieved <= 0 || res.Achieved > 1.5*rate {
		t.Fatalf("achieved rate %v implausible for offered %v", res.Achieved, rate)
	}
	rec := res.Record("txkvload", "txkvsrv/read-heavy-uniform-open", srv.Engine(), "tl2", 2, 0, 7)
	if rec.OfferedRate != rate || rec.AchievedRate != res.Achieved {
		t.Fatalf("record rates: %+v", rec)
	}
}

// TestOpenLoopSaturation overloads a single connection with an
// unreachable arrival rate: the achieved rate must fall visibly short
// of offered and late ops must be counted — the saturation visibility
// the open-loop mode exists for.
func TestOpenLoopSaturation(t *testing.T) {
	srv := startServer(t, "tinystm", 256)
	res, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr:          srv.Addr().String(),
		Mix:           txkv.UpdateHeavy,
		Conns:         1,
		Keys:          256,
		Seed:          3,
		Ops:           300,
		Rate:          2_000_000, // far beyond one loopback connection
		LateThreshold: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LateOps == 0 {
		t.Fatalf("no late ops under 2M ops/s on one connection: %+v", res)
	}
	if res.Achieved >= res.Offered {
		t.Fatalf("achieved %v should fall short of offered %v", res.Achieved, res.Offered)
	}
}

// TestOracleCatchesTampering arms the oracles against a store whose
// balance was changed outside the mix: the load run must report it.
func TestOracleCatchesTampering(t *testing.T) { bothModes(t, testOracleCatchesTampering) }

func testOracleCatchesTampering(t *testing.T, pipeline int) {
	srv := startServer(t, "swisstm", 128)
	cl, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Deleting a key breaks the population oracle.
	if _, err := cl.Delete(5); err != nil {
		t.Fatal(err)
	}
	res, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr: srv.Addr().String(),
		Mix:  txkv.ReadOnly,
		Keys: 128,
		Seed: 1,
		Ops:  50,

		Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleErr == nil {
		t.Fatal("oracle missed a deleted key")
	}
}

// TestClockStartsAfterWorkersAreBuilt: dialling the connections and
// building the key distribution (O(keys) for a zipfian one — tens of
// milliseconds here) is set-up, not load. The arrival schedule and
// Duration start once every worker is ready, in both modes, so a slow
// open-loop run dispatches nothing late; when the clock started first,
// the pipelined mode's first arrivals were late by construction, every
// time. A stalled host can still make one arrival late (the schedule is
// kept to four arrivals in 15 ms to give it little to hit), so one clean
// run in three passes.
func TestClockStartsAfterWorkersAreBuilt(t *testing.T) {
	bothModes(t, func(t *testing.T, pipeline int) {
		srv := startServer(t, "swisstm", 512)
		var late [3]uint64
		for try := range late {
			res, err := txkvclient.Run(txkvclient.LoadConfig{
				Addr: srv.Addr().String(), Mix: txkv.ReadOnly, Conns: 4,
				// Reads past the server's 512 keys just miss.
				Keys: 1 << 20, Zipf: 0.5,
				Seed: 1, Ops: 4, Rate: 200, LateThreshold: 30 * time.Millisecond,
				Pipeline: pipeline,
			})
			// OracleErr is not checked: the key-count oracle wants the
			// 2^20 keys drawn from, and the server holds 512 on purpose.
			// This test is about arrival lateness, not the store.
			if err != nil || res.Ops != 4 {
				t.Fatalf("%d ops of 4, err %v", res.Ops, err)
			}
			if late[try] = res.LateOps; res.LateOps == 0 {
				return
			}
		}
		t.Fatalf("arrivals dispatched late in each of three runs: %v of 4", late)
	})
}

// TestPipelineRejectsClientOptions: deadlines and retries belong to the
// synchronous Client; a pipelined run asked for them is refused before it
// dials, not run without them.
func TestPipelineRejectsClientOptions(t *testing.T) {
	for _, cfg := range []txkvclient.LoadConfig{
		{Timeout: time.Second}, {Retries: 3}, {RetryMutations: true},
	} {
		cfg.Addr, cfg.Mix, cfg.Ops, cfg.Pipeline = "127.0.0.1:1", txkv.ReadOnly, 10, 16
		if _, err := txkvclient.Run(cfg); !errors.Is(err, txkvclient.ErrPipelineOptions) {
			t.Errorf("%+v: err = %v, want ErrPipelineOptions", cfg, err)
		}
	}
}

// TestFirstWorkerErrorWins: when the server resets a pipelined load
// connection, the collector fails with the socket's error and the
// submitter, woken, with ErrPipeClosed — two error types racing for the
// one slot. Run returns the first and drops the rest; it used to keep
// them in an atomic.Value, which panics on the second type.
func TestFirstWorkerErrorWins(t *testing.T) {
	srv := startServer(t, "swisstm", 64)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for k := 0; ; k++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(k int, c net.Conn) {
				defer c.Close()
				if k > 0 { // a load connection: reset it at its first frame
					c.Read(make([]byte, 1))
					c.(*net.TCPConn).SetLinger(0)
					return
				}
				b, err := net.Dial("tcp", srv.Addr().String()) // Run's control connection
				if err != nil {
					return
				}
				defer b.Close()
				go io.Copy(c, b)
				io.Copy(b, c)
			}(k, c)
		}
	}()
	_, err = txkvclient.Run(txkvclient.LoadConfig{
		Addr: ln.Addr().String(), Mix: txkv.ReadOnly, Conns: 2, Keys: 64,
		Seed: 1, Ops: 200_000, Pipeline: 8,
	})
	if err == nil {
		t.Fatal("a run whose connections were reset reported no error")
	}
}
