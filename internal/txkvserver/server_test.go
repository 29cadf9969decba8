package txkvserver

import (
	"net"
	"strings"
	"testing"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvwire"
)

var engineKinds = harness.Kinds

func startServer(t *testing.T, kind string, keys int) (*Server, *txkvclient.Client) {
	t.Helper()
	srv, err := Start("127.0.0.1:0", Config{
		Engine: harness.EngineSpec{Kind: kind, Manager: "polka"},
		Keys:   keys,
	})
	if err != nil {
		t.Fatalf("start %s server: %v", kind, err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := txkvclient.DialRetry(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// TestStartRejectsUnknownKind: a kind that is none of harness.Kinds (a
// typo, or none at all) is Start's error, not a panic out of the engine
// factory.
func TestStartRejectsUnknownKind(t *testing.T) {
	for _, kind := range []string{"swistm", ""} {
		srv, err := Start("127.0.0.1:0", Config{Engine: harness.EngineSpec{Kind: kind}})
		if err == nil {
			srv.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "unknown engine kind \""+kind+"\"") {
			t.Errorf("Start with kind %q: %v", kind, err)
		}
	}
}

// TestServeAllEngines exercises every request type over real TCP on all
// four engines.
func TestServeAllEngines(t *testing.T) {
	for _, kind := range engineKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			const keys = 256
			_, cl := startServer(t, kind, keys)

			v, found, err := cl.Get(1)
			if err != nil || !found || v != 1000 {
				t.Fatalf("get pre-filled key: %d, %v, %v", v, found, err)
			}
			if _, found, _ := cl.Get(keys + 100); found {
				t.Fatal("get of absent key reported found")
			}
			ins, err := cl.Put(keys+1, 42)
			if err != nil || !ins {
				t.Fatalf("put fresh key: %v, %v", ins, err)
			}
			if v, _, _ := cl.Get(keys + 1); v != 42 {
				t.Fatalf("put did not stick: %d", v)
			}
			sw, err := cl.CAS(keys+1, 42, 43)
			if err != nil || !sw {
				t.Fatalf("cas hit: %v, %v", sw, err)
			}
			if sw, _ := cl.CAS(keys+1, 42, 44); sw {
				t.Fatal("cas with stale expected value swapped")
			}
			ex, err := cl.Delete(keys + 1)
			if err != nil || !ex {
				t.Fatalf("delete: %v, %v", ex, err)
			}
			n, err := cl.Len()
			if err != nil || n != keys {
				t.Fatalf("len: %d, %v (want %d)", n, err, keys)
			}
			ok, err := cl.Transfer([]uint64{1, 2, 3}, 5)
			if err != nil || !ok {
				t.Fatalf("transfer: %v, %v", ok, err)
			}
			sum, err := cl.Sum(-1)
			if err != nil || sum != keys*1000 {
				t.Fatalf("sum after transfer: %d, %v (want %d)", sum, err, keys*1000)
			}
			if v, _, _ := cl.Get(1); v != 1000-2*5 {
				t.Fatalf("transfer source balance %d, want %d", v, 1000-2*5)
			}

			// Reserved sentinel keys are rejected before any transaction.
			if _, err := cl.Put(0, 1); err == nil || !strings.Contains(err.Error(), "reserved") {
				t.Fatalf("put of reserved key 0: %v", err)
			}
			if _, err := cl.Sum(10_000); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("sum of bad shard: %v", err)
			}

			st, err := cl.Stats()
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			if st.Requests == 0 || st.Commits == 0 {
				t.Fatalf("stats counters empty: %+v", st)
			}
			if st.TxnNs == 0 || st.ReplyNs == 0 {
				t.Fatalf("phase counters empty: %+v", st)
			}
		})
	}
}

// TestBatchAtomicCommit runs a multi-op batch and checks all its writes
// landed together.
func TestBatchAtomicCommit(t *testing.T) {
	_, cl := startServer(t, "swisstm", 128)
	reply, err := cl.Do(txkvwire.Req{Op: txkvwire.OpBatch, Sub: []txkvwire.Req{
		{Op: txkvwire.OpPut, Key: 200, Val: 7},
		{Op: txkvwire.OpCAS, Key: 1, Old: 1000, Val: 1001},
		{Op: txkvwire.OpGet, Key: 200},
	}})
	if err != nil || reply.Err != "" {
		t.Fatalf("batch: %q / %v", reply.Err, err)
	}
	if r := reply.Sub; len(r) != 3 || !r[0].OK || !r[1].OK || !r[2].Found || r[2].Val != 7 {
		t.Fatalf("batch replies: %+v", r)
	}
	if v, _, _ := cl.Get(1); v != 1001 {
		t.Fatalf("batched cas not visible: %d", v)
	}
}

// TestBatchAbortRollsBack sends a batch whose write succeeds and whose
// later CAS fails: the all-or-nothing transaction must roll the write
// back, leaving the store byte-for-byte unchanged.
func TestBatchAbortRollsBack(t *testing.T) {
	for _, kind := range engineKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			const keys = 128
			_, cl := startServer(t, kind, keys)
			sum0, _ := cl.Sum(-1)
			len0, _ := cl.Len()

			reply, err := cl.Do(txkvwire.Req{Op: txkvwire.OpBatch, Sub: []txkvwire.Req{
				{Op: txkvwire.OpPut, Key: 500, Val: 99},        // fresh insert — would grow the store
				{Op: txkvwire.OpPut, Key: 1, Val: 77},          // overwrite — would break the sum
				{Op: txkvwire.OpCAS, Key: 2, Old: 123, Val: 9}, // fails: key 2 holds 1000
			}})
			if err != nil {
				t.Fatalf("transport: %v", err)
			}
			if !strings.Contains(reply.Err, "index 2") {
				t.Fatalf("batch abort error: %q (replies %+v)", reply.Err, reply.Sub)
			}

			if _, found, _ := cl.Get(500); found {
				t.Fatal("rolled-back insert is visible")
			}
			if v, _, _ := cl.Get(1); v != 1000 {
				t.Fatalf("rolled-back overwrite is visible: %d", v)
			}
			if sum1, _ := cl.Sum(-1); sum1 != sum0 {
				t.Fatalf("sum changed across aborted batch: %d != %d", sum1, sum0)
			}
			if len1, _ := cl.Len(); len1 != len0 {
				t.Fatalf("len changed across aborted batch: %d != %d", len1, len0)
			}
		})
	}
}

// TestKillConnMidBatch writes a frame header announcing a large batch
// payload, sends only part of it, and kills the connection. The server
// must not execute anything and the store must be unchanged.
func TestKillConnMidBatch(t *testing.T) {
	srv, cl := startServer(t, "tl2", 128)
	sum0, _ := cl.Sum(-1)
	len0, _ := cl.Len()

	// A real batch of writes, truncated mid-payload.
	var batch txkvwire.Req
	batch.Op = txkvwire.OpBatch
	for k := uint64(1); k <= 64; k++ {
		batch.Sub = append(batch.Sub, txkvwire.Req{Op: txkvwire.OpPut, Key: 1000 + k, Val: k})
	}
	payload, err := txkvwire.AppendReq(nil, batch)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hdr := []byte{byte(len(payload)), byte(len(payload) >> 8), byte(len(payload) >> 16), byte(len(payload) >> 24)}
	if _, err := raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(payload[:len(payload)/2]); err != nil {
		t.Fatal(err)
	}
	raw.Close() // mid-frame: the server's frame read fails, no request runs

	// Give the server a moment to observe the dropped connection, then
	// verify nothing changed.
	time.Sleep(20 * time.Millisecond)
	if sum1, _ := cl.Sum(-1); sum1 != sum0 {
		t.Fatalf("sum changed after mid-batch kill: %d != %d", sum1, sum0)
	}
	if len1, _ := cl.Len(); len1 != len0 {
		t.Fatalf("len changed after mid-batch kill: %d != %d", len1, len0)
	}
	if _, found, _ := cl.Get(1001); found {
		t.Fatal("truncated batch's write is visible")
	}
}

// TestGarbageFrameGetsErrorReply sends a well-framed but undecodable
// payload and expects an error reply (and a still-usable connection).
func TestGarbageFrameGetsErrorReply(t *testing.T) {
	srv, _ := startServer(t, "tinystm", 64)
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := txkvwire.WriteFrame(raw, []byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	buf, err := txkvwire.ReadFrame(raw, nil)
	if err != nil {
		t.Fatalf("read error reply: %v", err)
	}
	reply, err := txkvwire.DecodeReply(buf)
	if err != nil || reply.Err == "" {
		t.Fatalf("expected error reply, got %+v, %v", reply, err)
	}
	// The connection survives a decode error: frame alignment is intact.
	good, _ := txkvwire.AppendReq(nil, txkvwire.Req{Op: txkvwire.OpLen})
	if err := txkvwire.WriteFrame(raw, good); err != nil {
		t.Fatal(err)
	}
	buf, err = txkvwire.ReadFrame(raw, nil)
	if err != nil {
		t.Fatalf("read after decode error: %v", err)
	}
	reply, err = txkvwire.DecodeReply(buf)
	if err != nil || reply.Err != "" || reply.Val != 64 {
		t.Fatalf("len after decode error: %+v, %v", reply, err)
	}
}

// TestConcurrentConnections hammers one server from many connections
// under the transfer mix shape and checks the balance invariant held —
// the server-side analogue of the in-process transfer oracle.
func TestConcurrentConnections(t *testing.T) {
	for _, kind := range engineKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			const keys = 256
			srv, ctl := startServer(t, kind, keys)
			const conns = 4
			const opsPerConn = 150
			errc := make(chan error, conns)
			for c := 0; c < conns; c++ {
				go func(c int) {
					cl, err := txkvclient.Dial(srv.Addr().String())
					if err != nil {
						errc <- err
						return
					}
					defer cl.Close()
					for i := 0; i < opsPerConn; i++ {
						a := uint64(1 + (c*opsPerConn+i)%keys)
						b := a%keys + 1
						if a == b {
							continue
						}
						if _, err := cl.Transfer([]uint64{a, b}, 1); err != nil {
							errc <- err
							return
						}
					}
					errc <- nil
				}(c)
			}
			for c := 0; c < conns; c++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			sum, err := ctl.Sum(-1)
			if err != nil || sum != keys*1000 {
				t.Fatalf("balance not conserved: %d, %v (want %d)", sum, err, keys*1000)
			}
		})
	}
}
