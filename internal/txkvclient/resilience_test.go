package txkvclient

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"swisstm/internal/txkvwire"
)

// fakeSrv speaks just enough txkvwire to script failure sequences the
// real server can't produce on demand: drop the connection mid-request,
// reply Overloaded N times, capture the TTL of every attempt.
type fakeSrv struct {
	ln net.Listener

	mu       sync.Mutex
	attempts int
	ttls     []time.Duration
	// script decides each request's fate from its 0-based attempt
	// index; drop=true closes the connection without replying.
	script func(n int, req txkvwire.Req) (reply txkvwire.Reply, drop bool)
}

func newFakeSrv(t *testing.T, script func(n int, req txkvwire.Req) (txkvwire.Reply, bool)) *fakeSrv {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &fakeSrv{ln: ln, script: script}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(conn)
		}
	}()
	return f
}

func (f *fakeSrv) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		payload, err := txkvwire.ReadFrame(br, nil)
		if err != nil {
			return
		}
		req, err := txkvwire.DecodeReq(payload)
		if err != nil {
			return
		}
		f.mu.Lock()
		n := f.attempts
		f.attempts++
		f.ttls = append(f.ttls, req.TTL)
		reply, drop := f.script(n, req)
		f.mu.Unlock()
		if drop {
			return
		}
		reply.Op = req.Op
		buf, err := txkvwire.AppendReply(nil, reply)
		if err != nil {
			panic("fakeSrv: unencodable scripted reply: " + err.Error())
		}
		if err := txkvwire.WriteFrame(conn, buf); err != nil {
			return
		}
	}
}

func (f *fakeSrv) seen() (int, []time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts, append([]time.Duration(nil), f.ttls...)
}

func okReply() (txkvwire.Reply, bool) {
	return txkvwire.Reply{OK: true, Found: true, Val: 7}, false
}

func overloadedReply() (txkvwire.Reply, bool) {
	return txkvwire.Reply{Err: "overloaded: scripted", Code: txkvwire.CodeOverloaded}, false
}

func dialFake(t *testing.T, f *fakeSrv, opts Options) *Client {
	t.Helper()
	if opts.Timeout == 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.BackoffBase == 0 {
		opts.BackoffBase = 100 * time.Microsecond
		opts.BackoffMax = time.Millisecond
	}
	cl, err := DialOptions(f.ln.Addr().String(), opts)
	if err != nil {
		t.Fatalf("dial fake: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestMutationTransportRetryGated pins the exactly-once default: a
// connection dropped mid-Put is NOT retried (the write may have
// committed server-side), while the same failure on a Get retries
// freely, and RetryMutations opts writes back in explicitly.
func TestMutationTransportRetryGated(t *testing.T) {
	drop1 := func(n int, _ txkvwire.Req) (txkvwire.Reply, bool) {
		if n == 0 {
			return txkvwire.Reply{}, true
		}
		return okReply()
	}

	// Default: the lost Put reply surfaces as a transport error.
	f := newFakeSrv(t, drop1)
	cl := dialFake(t, f, Options{MaxRetries: 3})
	if _, err := cl.Put(1, 2); err == nil {
		t.Fatal("dropped Put silently retried with RetryMutations off")
	}
	if n, _ := f.seen(); n != 1 {
		t.Fatalf("server saw %d attempts of a gated mutation, want 1", n)
	}
	if cl.Retries != 0 {
		t.Fatalf("gated mutation recorded %d retries", cl.Retries)
	}

	// Same failure on a read retries transparently.
	f = newFakeSrv(t, drop1)
	cl = dialFake(t, f, Options{MaxRetries: 3})
	if v, found, err := cl.Get(1); err != nil || !found || v != 7 {
		t.Fatalf("read after drop: %d %v %v (want transparent retry)", v, found, err)
	}
	if n, _ := f.seen(); n != 2 {
		t.Fatalf("server saw %d read attempts, want 2", n)
	}

	// RetryMutations accepts at-least-once and retries the Put.
	f = newFakeSrv(t, drop1)
	cl = dialFake(t, f, Options{MaxRetries: 3, RetryMutations: true})
	if ok, err := cl.Put(1, 2); err != nil || !ok {
		t.Fatalf("opted-in Put retry: %v %v", ok, err)
	}
	if cl.Retries == 0 || cl.Reconnects == 0 {
		t.Fatalf("counters: retries=%d reconnects=%d", cl.Retries, cl.Reconnects)
	}
}

// TestShedRetriedForMutations: a typed retryable shed arrives BEFORE
// execution, so even mutations retry it with RetryMutations off — that
// is the entire point of the typed taxonomy.
func TestShedRetriedForMutations(t *testing.T) {
	f := newFakeSrv(t, func(n int, _ txkvwire.Req) (txkvwire.Reply, bool) {
		if n < 2 {
			return overloadedReply()
		}
		return okReply()
	})
	cl := dialFake(t, f, Options{MaxRetries: 3})
	if ok, err := cl.Put(1, 2); err != nil || !ok {
		t.Fatalf("put through sheds: %v %v", ok, err)
	}
	if n, _ := f.seen(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 sheds + success)", n)
	}
	if cl.ShedRetries != 2 {
		t.Fatalf("shed retries = %d, want 2", cl.ShedRetries)
	}
}

// TestPermanentCodeNotRetried: Rejected is the caller's bug; burning
// retry budget on it would just repeat the refusal.
func TestPermanentCodeNotRetried(t *testing.T) {
	f := newFakeSrv(t, func(int, txkvwire.Req) (txkvwire.Reply, bool) {
		return txkvwire.Reply{Err: "rejected: scripted", Code: txkvwire.CodeRejected}, false
	})
	cl := dialFake(t, f, Options{MaxRetries: 5})
	reply, err := cl.Do(txkvwire.Req{Op: txkvwire.OpGet, Key: 1})
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	if reply.Code != txkvwire.CodeRejected {
		t.Fatalf("code %v, want Rejected", reply.Code)
	}
	if n, _ := f.seen(); n != 1 {
		t.Fatalf("server saw %d attempts of a permanent failure, want 1", n)
	}
}

// TestBudgetPropagation: each retry advertises the REMAINING budget as
// its wire TTL, so the server never queues work whose client has
// already given up.
func TestBudgetPropagation(t *testing.T) {
	f := newFakeSrv(t, func(n int, _ txkvwire.Req) (txkvwire.Reply, bool) {
		if n == 0 {
			return overloadedReply()
		}
		return okReply()
	})
	const budget = 500 * time.Millisecond
	cl := dialFake(t, f, Options{MaxRetries: 3, Budget: budget, BackoffBase: 5 * time.Millisecond})
	if v, found, err := cl.Get(1); err != nil || !found || v != 7 {
		t.Fatalf("get: %d %v %v", v, found, err)
	}
	_, ttls := f.seen()
	if len(ttls) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(ttls))
	}
	if ttls[0] != budget {
		t.Fatalf("first attempt advertised TTL %v, want the full budget %v", ttls[0], budget)
	}
	if ttls[1] <= 0 || ttls[1] >= ttls[0] {
		t.Fatalf("retry advertised TTL %v, want shrunk but positive (first was %v)", ttls[1], ttls[0])
	}
}
