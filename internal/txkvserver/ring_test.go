package txkvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/txkvwire"
)

// The answer rule (DESIGN.md §14.2), driven slot by slot and frame by
// frame over a connection that records its socket reads and writes.

// wireConn serves the request bytes a test feeds it and logs, in order,
// how many frames each socket read and write carried.
type wireConn struct {
	net.Conn
	in     chan []byte // closed: the client is gone
	mu     sync.Mutex
	events []string
}

// newWireConn's input holds a few chunks, so a test can feed frames the
// server has not read yet without blocking.
func newWireConn() *wireConn { return &wireConn{in: make(chan []byte, 4)} }

// Read hands over one fed chunk; chunks are far smaller than the server's
// read buffer.
func (w *wireConn) Read(p []byte) (int, error) {
	b, ok := <-w.in
	if !ok {
		return 0, io.EOF
	}
	w.record("read", b)
	return copy(p, b), nil
}

func (w *wireConn) Write(p []byte) (int, error) {
	w.record("write", p)
	return len(p), nil
}

func (w *wireConn) Close() error { return nil }

func (w *wireConn) record(what string, p []byte) {
	n := 0
	for r := bytes.NewReader(p); r.Len() > 0; n++ {
		if _, err := txkvwire.ReadFrame(r, nil); err != nil {
			n = -1 // a torn frame
			break
		}
	}
	w.mu.Lock()
	w.events = append(w.events, fmt.Sprintf("%s %d", what, n))
	w.mu.Unlock()
}

// sent returns the socket reads and writes so far.
func (w *wireConn) sent() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.events)
}

// newRingConn is a connection with a ring of the given window over a
// wireConn.
func newRingConn(window int) (*conn, *wireConn) {
	w := newWireConn()
	return &conn{s: &Server{m: newMetrics(1)}, nc: w, bw: bufio.NewWriterSize(w, 4<<10), ring: newReplyRing(window)}, w
}

// reserve takes n slots in request order and arms their items as puts.
func reserve(r *replyRing, n int) []*slot {
	sls := make([]*slot, n)
	for i := range sls {
		sls[i] = r.reserve(0)
		sls[i].Init(coalesce.OpPut, 1, 1, 0, time.Time{}, sls[i])
	}
	return sls
}

func complete(sl *slot) { sl.Complete(coalesce.Result{OK: true}) }

// answerWithin runs answer and fails the test if it does not return.
func answerWithin(t *testing.T, c *conn) {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- c.answer() }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("answer: the reply side failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("answer never returned")
	}
}

// TestAnswerWritesWindowOnce: the head of a full window completes first,
// the other fifteen after it in reverse order. answer waits for all of
// them and sends the sixteen replies in one socket write.
func TestAnswerWritesWindowOnce(t *testing.T) {
	const window = 16
	c, w := newRingConn(window)
	sls := reserve(c.ring, window)
	go func() {
		complete(sls[0])
		for i := window - 1; i > 0; i-- {
			time.Sleep(100 * time.Microsecond)
			complete(sls[i])
		}
	}()
	answerWithin(t, c)
	if got := w.sent(); !slices.Equal(got, []string{"write 16"}) {
		t.Fatalf("socket writes %v, want the window in one", got)
	}
}

// TestUnreserveDoesNotStallAnswer: the last slot given back by unreserve
// — its item was refused, a shard queue full — is not waited for: answer
// writes the rest.
func TestUnreserveDoesNotStallAnswer(t *testing.T) {
	c, w := newRingConn(4)
	sls := reserve(c.ring, 3)
	complete(sls[0])
	complete(sls[1])
	c.ring.unreserve()
	answerWithin(t, c)
	if got := w.sent(); !slices.Equal(got, []string{"write 2"}) {
		t.Fatalf("socket writes %v, want [write 2]", got)
	}
}

// TestFrameReadAfterOwedReplies: a put is held queued on its shard when
// the next frame arrives. The connection goroutine does not read that
// frame until the put's reply is written, so a later request cannot hold
// a pass back.
func TestFrameReadAfterOwedReplies(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 64, Config{})
	release := holdShard(t, srv, 1)
	w := newWireConn()
	c := &conn{s: srv, nc: w, br: bufio.NewReaderSize(w, 16<<10), bw: bufio.NewWriterSize(w, 4<<10),
		cm: coalesce.NewCommit(srv.store, srv.wal, srv.feeds), ring: newReplyRing(srv.cfg.Pipeline)}
	served := make(chan struct{})
	go func() {
		c.serve()
		c.answer()
		close(served)
	}()

	w.in <- putFrames(t, 1, 100, 1)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		c.ring.mu.Lock()
		queued := c.ring.undone == 1
		c.ring.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first put was never enqueued")
		}
	}
	w.in <- putFrames(t, 1, 101, 1)
	time.Sleep(20 * time.Millisecond) // a goroutine that read on would have taken the frame by now
	if got := w.sent(); !slices.Equal(got, []string{"read 1"}) {
		t.Fatalf("socket reads and writes %v with the first reply owed, want [read 1]", got)
	}
	release()
	close(w.in)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the connection never finished")
	}
	if got, want := w.sent(), []string{"read 1", "write 1", "read 1", "write 1"}; !slices.Equal(got, want) {
		t.Fatalf("socket reads and writes %v, want %v", got, want)
	}
}
