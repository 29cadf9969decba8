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

// startLimited boots a server with admission limits for the overload
// tests: one engine thread so a single slow request occupies the whole
// pool, and a key population big enough that a max-size batch of
// full-store scans holds it for tens of milliseconds at least.
func startLimited(t *testing.T, kind string, cfg Config) (*Server, *txkvclient.Client) {
	t.Helper()
	cfg.Engine = harness.EngineSpec{Kind: kind, Manager: "polka"}
	if cfg.Keys == 0 {
		// Sized so slowBatch occupies the thread for tens of
		// milliseconds to a few seconds; rstm's object indirection
		// makes its scans an order of magnitude slower, so it gets a
		// smaller store to keep the suite fast.
		if kind == "rstm" {
			cfg.Keys = 512
		} else {
			cfg.Keys = 4096
		}
	}
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	srv, err := Start("127.0.0.1:0", cfg)
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

// slowBatch is a max-size batch of full-store scans: the longest
// engine occupancy one request can buy.
func slowBatch() txkvwire.Req {
	sub := make([]txkvwire.Req, txkvwire.MaxBatch)
	for i := range sub {
		sub[i] = txkvwire.Req{Op: txkvwire.OpSum, Shard: -1}
	}
	return txkvwire.Req{Op: txkvwire.OpBatch, Sub: sub}
}

// occupyThread sends slowBatch on its own connection and returns a
// channel carrying the eventual transport error. It waits until the
// pool is actually empty (the batch borrowed the only engine thread)
// before returning, so callers can queue behind it deterministically.
func occupyThread(t *testing.T, srv *Server) <-chan error {
	t.Helper()
	occ, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial occupier: %v", err)
	}
	t.Cleanup(func() { occ.Close() })
	done := make(chan error, 1)
	go func() {
		_, err := occ.Do(slowBatch())
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.pool) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("occupier never borrowed the engine thread")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// waitQueued polls until n requests are waiting for an engine thread.
func waitQueued(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d queued requests (have %d)", n, srv.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainRepliesDrainingToQueued pins the drain-vs-queue contract on
// every engine: a request waiting in the admission queue when Drain
// starts gets a typed retryable Draining reply instead of hanging for
// an engine thread that will never come, while the in-flight request
// that holds the thread finishes normally.
func TestDrainRepliesDrainingToQueued(t *testing.T) {
	for _, kind := range engineKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			srv, _ := startLimited(t, kind, Config{})
			occDone := occupyThread(t, srv)

			qcl, err := txkvclient.Dial(srv.Addr().String())
			if err != nil {
				t.Fatalf("dial queued client: %v", err)
			}
			defer qcl.Close()
			type res struct {
				reply txkvwire.Reply
				err   error
			}
			qdone := make(chan res, 1)
			go func() {
				reply, err := qcl.Do(txkvwire.Req{Op: txkvwire.OpGet, Key: 1})
				qdone <- res{reply, err}
			}()
			waitQueued(t, srv, 1)

			if err := srv.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			r := <-qdone
			if r.err != nil {
				t.Fatalf("queued request's transport failed: %v (want a Draining reply)", r.err)
			}
			if r.reply.Code != txkvwire.CodeDraining {
				t.Fatalf("queued request got code %v (%q), want Draining", r.reply.Code, r.reply.Err)
			}
			if !r.reply.Code.Retryable() {
				t.Fatal("Draining must be retryable — the client should just go elsewhere")
			}
			if err := <-occDone; err != nil {
				t.Fatalf("in-flight batch did not survive the drain: %v", err)
			}
		})
	}
}

// TestShedQueueWaitRecordsQueueTime pins the queue-phase accounting
// for shed requests: a request shed by the wait bound must contribute
// its real queue time to the QueueNs phase sum (the pre-admission
// timestamping bug this PR fixes) and must not touch the txn phase it
// never reached.
func TestShedQueueWaitRecordsQueueTime(t *testing.T) {
	const wait = 5 * time.Millisecond
	srv, _ := startLimited(t, "swisstm", Config{MaxQueueWait: wait})
	occDone := occupyThread(t, srv)

	s0 := srv.m.snapshot()
	cl, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	reply, err := cl.Do(txkvwire.Req{Op: txkvwire.OpGet, Key: 1})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if reply.Code != txkvwire.CodeOverloaded || !strings.Contains(reply.Err, "queue wait") {
		t.Fatalf("want an Overloaded queue-wait shed, got code %v (%q)", reply.Code, reply.Err)
	}

	// The metrics record lands after the reply is flushed; poll for it.
	var s1 txkvwire.Stats
	deadline := time.Now().Add(5 * time.Second)
	for {
		s1 = srv.m.snapshot()
		if s1.Sheds > s0.Sheds || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s1.Sheds != s0.Sheds+1 {
		t.Fatalf("sheds %d -> %d, want one queue-wait shed", s0.Sheds, s1.Sheds)
	}
	if d := s1.QueueNs - s0.QueueNs; d < uint64(wait.Nanoseconds())*4/5 {
		t.Fatalf("shed request recorded only %dns of queue time, waited %v", d, wait)
	}
	if s1.TxnNs != s0.TxnNs {
		t.Fatal("shed request recorded txn time it never spent")
	}
	<-occDone
}

// TestShedQueueFull: with the queue at its occupancy cap, the next
// request is refused immediately with Overloaded, and the request
// already queued is still served once the thread frees up.
func TestShedQueueFull(t *testing.T) {
	srv, _ := startLimited(t, "tl2", Config{MaxQueue: 1})
	occDone := occupyThread(t, srv)

	qcl, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer qcl.Close()
	type res struct {
		reply txkvwire.Reply
		err   error
	}
	qdone := make(chan res, 1)
	go func() {
		reply, err := qcl.Do(txkvwire.Req{Op: txkvwire.OpGet, Key: 1})
		qdone <- res{reply, err}
	}()
	waitQueued(t, srv, 1)

	over, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial overflow client: %v", err)
	}
	defer over.Close()
	t0 := time.Now()
	reply, err := over.Do(txkvwire.Req{Op: txkvwire.OpGet, Key: 2})
	if err != nil {
		t.Fatalf("overflow do: %v", err)
	}
	if reply.Code != txkvwire.CodeOverloaded || !strings.Contains(reply.Err, "queue full") {
		t.Fatalf("want an Overloaded queue-full shed, got code %v (%q)", reply.Code, reply.Err)
	}
	// An occupancy shed must not burn the wait bound: it is immediate.
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("queue-full shed took %v, want immediate refusal", d)
	}

	if err := <-occDone; err != nil {
		t.Fatalf("occupier: %v", err)
	}
	r := <-qdone
	if r.err != nil || r.reply.Err != "" || !r.reply.Found {
		t.Fatalf("queued request not served after thread freed: %+v / %v", r.reply, r.err)
	}
}

// TestDeadlineExceededWaiting: a request whose TTL expires while it
// waits for an engine thread is dropped with the permanent
// DeadlineExceeded code — the client has already given up, executing
// it would be wasted work.
func TestDeadlineExceededWaiting(t *testing.T) {
	srv, _ := startLimited(t, "tinystm", Config{})
	occDone := occupyThread(t, srv)

	// Raw frames: the resilient client stops waiting once the TTL
	// budget is spent (correctly — the reply is useless to it), but the
	// test wants to observe the typed reply itself.
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	frame, err := txkvwire.AppendReq(nil, txkvwire.Req{Op: txkvwire.OpGet, Key: 1, TTL: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := txkvwire.WriteFrame(raw, frame); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf, err := txkvwire.ReadFrame(raw, nil)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	reply, err := txkvwire.DecodeReply(buf)
	if err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	if reply.Code != txkvwire.CodeDeadlineExceeded || !strings.Contains(reply.Err, "deadline") {
		t.Fatalf("want DeadlineExceeded, got code %v (%q)", reply.Code, reply.Err)
	}
	if reply.Code.Retryable() {
		t.Fatal("DeadlineExceeded must be permanent: the budget is spent, retrying is useless")
	}

	var st txkvwire.Stats
	deadline := time.Now().Add(5 * time.Second)
	for st = srv.m.snapshot(); st.DeadlineExceeded == 0 && time.Now().Before(deadline); st = srv.m.snapshot() {
		time.Sleep(time.Millisecond)
	}
	if st.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded counter = %d, want 1", st.DeadlineExceeded)
	}
	<-occDone
}

// TestMaxConnsRejected: a connection beyond the cap gets exactly one
// typed Overloaded frame and a close — never a silent hang.
func TestMaxConnsRejected(t *testing.T) {
	srv, ctl := startLimited(t, "swisstm", Config{Keys: 64, MaxConns: 1})
	// ctl holds the one allowed slot; the next dial must be refused.
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, err := txkvwire.ReadFrame(raw, nil)
	if err != nil {
		t.Fatalf("read rejection frame: %v", err)
	}
	reply, err := txkvwire.DecodeReply(buf)
	if err != nil {
		t.Fatalf("decode rejection: %v", err)
	}
	if reply.Code != txkvwire.CodeOverloaded || !strings.Contains(reply.Err, "connection limit") {
		t.Fatalf("want Overloaded connection rejection, got code %v (%q)", reply.Code, reply.Err)
	}
	if _, err := txkvwire.ReadFrame(raw, nil); err == nil {
		t.Fatal("rejected connection stayed open after the refusal frame")
	}

	st, err := ctl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.ConnsRejected != 1 {
		t.Fatalf("conns_rejected = %d, want 1", st.ConnsRejected)
	}
}

// TestTotalIsPhaseSum pins the per-request accounting identity at the
// metrics layer: the total histogram records exactly the sum of the
// six phase sums, so per-phase time can never leak out of (or
// double-count into) the end-to-end figure — whether a request is
// recorded in one call or, as writePass does around a pass, counted
// first and observed later.
func TestTotalIsPhaseSum(t *testing.T) {
	phases := [phaseCount]uint64{1, 20, 300, 4000, 50_000, 600_000}
	for name, book := range map[string]func(*metrics){
		"record": func(m *metrics) { m.record(txkvwire.OpGet, phases) },
		"count+observe": func(m *metrics) {
			m.ops[txkvwire.OpGet].requests.Inc()
			m.observe(txkvwire.OpGet, phases)
		},
	} {
		m := newMetrics(4)
		book(m)
		om := &m.ops[int(txkvwire.OpGet)]
		var sum uint64
		for p := 0; p < phaseCount; p++ {
			h := om.phase[p].Snapshot()
			sum += h.Sum
		}
		tot := om.total.Snapshot()
		if want := uint64(654_321); tot.Sum != want || sum != want || tot.Count != 1 {
			t.Fatalf("%s: total=%d over %d requests, phases=%d, want %d over 1", name, tot.Sum, tot.Count, sum, want)
		}
		st := m.snapshot()
		if got := st.ParseNs + st.QueueNs + st.TxnNs + st.CommitNs + st.WalNs + st.ReplyNs; got != 654_321 || st.Requests != 1 {
			t.Fatalf("%s: snapshot phase sum %d over %d requests, want 654321 over 1", name, got, st.Requests)
		}
	}
}
