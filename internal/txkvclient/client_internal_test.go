package txkvclient

import (
	"bufio"
	"net"
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

// countingConn counts the Write calls that reach the socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerRequest pins the client's wire shape: a request's
// length prefix and payload leave in ONE Write — one syscall and one TCP
// segment — from Client.Do and from Pipe.Submit alike, whatever the
// request size.
func TestOneWritePerRequest(t *testing.T) {
	f := newFakeSrv(t, func(_ int, req txkvwire.Req) (txkvwire.Reply, bool) {
		if req.Op == txkvwire.OpBatch {
			return txkvwire.Reply{Err: "scripted", Code: txkvwire.CodeRejected}, false
		}
		return okReply()
	})
	dial := func() *countingConn {
		conn, err := net.Dial("tcp", f.ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		return &countingConn{Conn: conn}
	}
	batch := txkvwire.Req{Op: txkvwire.OpBatch}
	for i := 0; i < txkvwire.MaxBatch; i++ {
		batch.Sub = append(batch.Sub, txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(i + 1), Val: 1})
	}
	reqs := []txkvwire.Req{
		{Op: txkvwire.OpGet, Key: 1},
		{Op: txkvwire.OpPut, Key: 2, Val: 3, TTL: time.Second},
		batch,
	}

	cc := dial()
	cl := &Client{conn: cc, br: bufio.NewReader(cc)}
	for i, req := range reqs {
		if _, err := cl.Do(req); err != nil {
			t.Fatalf("do %d: %v", i, err)
		}
		if got := cc.writes.Load(); got != int64(i+1) {
			t.Fatalf("after %d Client.Do calls the socket saw %d writes", i+1, got)
		}
	}

	pc := dial()
	p := newPipe(pc, 4)
	for i, req := range reqs {
		if err := p.Submit(req, i, true, true); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if got := pc.writes.Load(); got != int64(i+1) {
			t.Fatalf("after %d Pipe.Submit calls the socket saw %d writes", i+1, got)
		}
		if tag, _, _, err := p.Recv(); err != nil || tag != i {
			t.Fatalf("recv %d: tag %v, err %v", i, tag, err)
		}
	}
}
