package txkvclient

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkvserver"
	"swisstm/internal/txkvwire"
)

// TestRetryReconnects breaks the client's connection out from under it
// and checks the next request transparently redials and succeeds, with
// the resilience counters recording what happened.
func TestRetryReconnects(t *testing.T) {
	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine: harness.EngineSpec{Kind: "swisstm", Manager: "polka"},
		Keys:   64,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()

	cl, err := DialRetryOptions(srv.Addr().String(), 5*time.Second, Options{
		Timeout:     2 * time.Second,
		MaxRetries:  3,
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	if _, _, err := cl.Get(1); err != nil {
		t.Fatalf("get before break: %v", err)
	}
	cl.conn.Close() // sever the transport mid-session
	v, found, err := cl.Get(1)
	if err != nil || !found || v != 1000 {
		t.Fatalf("get after break: %d %v %v (want transparent retry)", v, found, err)
	}
	if cl.Retries == 0 || cl.Reconnects == 0 {
		t.Fatalf("resilience counters not recorded: retries=%d reconnects=%d", cl.Retries, cl.Reconnects)
	}

	// Fail-fast clients must keep the old behavior: a severed transport
	// is the caller's problem.
	strict, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial strict: %v", err)
	}
	defer strict.Close()
	strict.conn.Close()
	if _, _, err := strict.Get(1); err == nil {
		t.Fatal("fail-fast client silently retried")
	}
}

// countingConn counts the Write calls that reach the socket and keeps
// their bytes; with fail set, every Write fails without sending.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	fail   atomic.Bool
	wrote  chan struct{} // one token per Write, dropped when full

	mu   sync.Mutex
	wire []byte
}

var errScriptedWrite = errors.New("countingConn: scripted write failure")

func (c *countingConn) Write(p []byte) (int, error) {
	// Decided before the token goes out: a test that arms fail once it has
	// seen this write must not fail this write.
	fail := c.fail.Load()
	c.writes.Add(1)
	select {
	case c.wrote <- struct{}{}:
	default:
	}
	if fail {
		return 0, errScriptedWrite
	}
	c.mu.Lock()
	c.wire = append(c.wire, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func dialCounting(t *testing.T, f *fakeSrv) *countingConn {
	t.Helper()
	conn, err := net.Dial("tcp", f.ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &countingConn{Conn: conn, wrote: make(chan struct{}, 64)}
}

// wireShapeReqs spans the frame sizes: a 1-op frame, one with a TTL, and
// a max-batch frame (which the fake server answers with an error reply).
func wireShapeReqs() []txkvwire.Req {
	batch := txkvwire.Req{Op: txkvwire.OpBatch}
	for i := 0; i < txkvwire.MaxBatch; i++ {
		batch.Sub = append(batch.Sub, txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(i + 1), Val: 1})
	}
	return []txkvwire.Req{
		{Op: txkvwire.OpGet, Key: 1},
		{Op: txkvwire.OpPut, Key: 2, Val: 3, TTL: time.Second},
		batch,
	}
}

func newShapeSrv(t *testing.T) *fakeSrv {
	return newFakeSrv(t, func(_ int, req txkvwire.Req) (txkvwire.Reply, bool) {
		if req.Op == txkvwire.OpBatch {
			return txkvwire.Reply{Err: "scripted", Code: txkvwire.CodeRejected}, false
		}
		return okReply()
	})
}

// TestOneWritePerRequest pins the client's wire shape. A unary caller
// blocks after every frame, so Client.Do puts each request — length
// prefix and payload — on the socket in exactly ONE Write, whatever its
// size. A pipelined caller blocks once per burst, so Pipe puts a whole
// window of frames on the socket in one Write, and what it writes is
// byte for byte the frames in submit order.
func TestOneWritePerRequest(t *testing.T) {
	f := newShapeSrv(t)
	reqs := wireShapeReqs()

	cc := dialCounting(t, f)
	cl := &Client{conn: cc, br: bufio.NewReader(cc)}
	for i, req := range reqs {
		if _, err := cl.Do(req); err != nil {
			t.Fatalf("do %d: %v", i, err)
		}
		if got := cc.writes.Load(); got != int64(i+1) {
			t.Fatalf("after %d Client.Do calls the socket saw %d writes", i+1, got)
		}
	}

	const window, rounds = 16, 5
	pc := dialCounting(t, f)
	p := newPipe(pc, window)
	var want []byte
	for r := 0; r < rounds; r++ {
		for i := 0; i < window; i++ {
			req := reqs[(r+i)%len(reqs)]
			var err error
			if want, err = txkvwire.AppendReqFrame(want, req); err != nil {
				t.Fatal(err)
			}
			if err := p.Submit(req, r*window+i, true, true); err != nil {
				t.Fatalf("round %d submit %d: %v", r, i, err)
			}
		}
		for i := 0; i < window; i++ {
			if tag, last, _, err := p.Recv(); err != nil || tag != r*window+i || !last {
				t.Fatalf("round %d recv %d: tag %v, last %v, err %v", r, i, tag, last, err)
			}
		}
		if got := pc.writes.Load(); got != int64(r+1) {
			t.Fatalf("after %d bursts of %d the socket saw %d writes", r+1, window, got)
		}
	}
	if !bytes.Equal(pc.wire, want) {
		t.Fatalf("the wire carries %d bytes, want the %d bytes of the frames in submit order", len(pc.wire), len(want))
	}
}

// TestBatchReplyBufferReused: Do decodes a Batch reply into the largest
// sub-reply array the client has decoded, so once it has had a 256-Get
// reply a Batch costs no allocation. A reused array never leaks a stale
// sub-reply: batches of 256, 3, 256 and 1 keys over different ranges each
// return their own length and their own keys' values.
func TestBatchReplyBufferReused(t *testing.T) {
	const keys = 4 * txkvwire.MaxBatch
	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine: harness.EngineSpec{Kind: "swisstm", Manager: "polka"},
		Keys:   keys,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	val := func(k uint64) uint64 { return 1_000_000 + 7*k }
	batch := func(op txkvwire.Op, lo uint64, n int) txkvwire.Req {
		req := txkvwire.Req{Op: txkvwire.OpBatch, Sub: make([]txkvwire.Req, n)}
		for i := range req.Sub {
			req.Sub[i] = txkvwire.Req{Op: op, Key: lo + uint64(i), Val: val(lo + uint64(i))}
		}
		return req
	}
	for lo := uint64(1); lo <= keys; lo += txkvwire.MaxBatch {
		if reply, err := cl.Do(batch(txkvwire.OpPut, lo, txkvwire.MaxBatch)); err != nil || reply.Err != "" {
			t.Fatalf("put keys %d..: %v %q", lo, err, reply.Err)
		}
	}
	gets := batch(txkvwire.OpGet, 1, txkvwire.MaxBatch)
	if _, err := cl.Do(gets); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, err = cl.Do(gets) }); err != nil || n != 0 {
		t.Errorf("a 256-Get Batch after the first: %v allocations per Do (%v), want 0", n, err)
	}

	for _, b := range []struct {
		lo uint64
		n  int
	}{{1, 256}, {700, 3}, {300, 256}, {1000, 1}} {
		reply, err := cl.Do(batch(txkvwire.OpGet, b.lo, b.n))
		if err != nil || reply.Err != "" || len(reply.Sub) != b.n {
			t.Fatalf("%d Gets from key %d: %d sub-replies (%v %q)", b.n, b.lo, len(reply.Sub), err, reply.Err)
		}
		for i, r := range reply.Sub {
			if k := b.lo + uint64(i); r.Op != txkvwire.OpGet || !r.Found || r.Val != val(k) {
				t.Fatalf("%d Gets from key %d: sub-reply %d is %+v, want key %d's value %d", b.n, b.lo, i, r, k, val(k))
			}
		}
	}
}
