package txkvserver

import (
	"bufio"
	"bytes"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/txkvwire"
)

// The wave rule (DESIGN.md §14.2), driven slot by slot: a connWriter over
// a connection that records its socket writes, and slots completed by
// hand in a chosen order.

// wireConn counts the reply frames in each socket write.
type wireConn struct {
	net.Conn
	mu     sync.Mutex
	writes []int
}

func (w *wireConn) Write(p []byte) (int, error) {
	n := 0
	for r := bytes.NewReader(p); r.Len() > 0; n++ {
		if _, err := txkvwire.ReadFrame(r, nil); err != nil {
			return 0, err
		}
	}
	w.mu.Lock()
	w.writes = append(w.writes, n)
	w.mu.Unlock()
	return len(p), nil
}

func (w *wireConn) Close() error { return nil }

// sent returns the replies of each socket write so far.
func (w *wireConn) sent() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.writes)
}

// startWriter runs a connWriter over a fresh ring of the given window and
// stops it at cleanup — unless the test failed, when the ring may never
// go idle.
func startWriter(t *testing.T, window int) (*replyRing, *wireConn) {
	w := &wireConn{}
	c := &conn{s: &Server{m: newMetrics(1)}, nc: w, bw: bufio.NewWriterSize(w, 4<<10), ring: newReplyRing(window)}
	go c.connWriter()
	t.Cleanup(func() {
		if !t.Failed() {
			c.ring.close()
		}
	})
	return c.ring, w
}

// reserve takes n slots in request order.
func reserve(r *replyRing, n int) []*slot {
	sls := make([]*slot, n)
	for i := range sls {
		sls[i], _ = r.reserve(txkvwire.OpPut, 0)
	}
	return sls
}

func complete(sl *slot) { sl.Complete(coalesce.Result{OK: true}) }

// eventually polls cond, under the ring's lock, until it holds.
func eventually(t *testing.T, r *replyRing, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		r.mu.Lock()
		ok := cond()
		r.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestWaveWritesWindowOnce: the head of a full window completes first,
// the other fifteen after it in reverse order. The writer waits out the
// wave the head opened and sends all sixteen replies in one socket write.
func TestWaveWritesWindowOnce(t *testing.T) {
	const window = 16
	r, w := startWriter(t, window)
	sls := reserve(r, window)
	complete(sls[0])
	eventually(t, r, "the writer has seen the head", func() bool { return r.wave != 0 || r.head != 0 })
	for i := window - 1; i > 0; i-- {
		complete(sls[i])
	}
	eventually(t, r, "the window is answered", func() bool { return r.head == window })
	if got := w.sent(); !slices.Equal(got, []int{window}) {
		t.Fatalf("replies per socket write %v, want the window in one", got)
	}
}

// TestWaveIgnoresLaterRequests: a request reserved after the head's wave
// opened does not hold that wave's write back.
func TestWaveIgnoresLaterRequests(t *testing.T) {
	r, w := startWriter(t, 4)
	sls := reserve(r, 2)
	complete(sls[0])
	eventually(t, r, "the wave opens", func() bool { return r.wave == 2 })
	late := reserve(r, 1)[0]
	complete(sls[1])
	eventually(t, r, "the wave is answered", func() bool { return r.head == 2 })
	if got := w.sent(); !slices.Equal(got, []int{2}) {
		t.Fatalf("replies per socket write %v with the later request pending, want [2]", got)
	}
	complete(late)
	eventually(t, r, "the later request is answered", func() bool { return r.head == 3 })
	if got := w.sent(); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("replies per socket write %v, want [2 1]", got)
	}
}

// TestUnreserveInsideWave: a slot given back by unreserve — its item was
// refused, a shard queue full — after the wave that counts it opened is
// no longer waited for: the writer answers the rest of the wave.
func TestUnreserveInsideWave(t *testing.T) {
	r, w := startWriter(t, 4)
	sls := reserve(r, 3)
	complete(sls[0])
	eventually(t, r, "the wave opens", func() bool { return r.wave == 3 })
	complete(sls[1])
	r.unreserve()
	eventually(t, r, "the wave is answered", func() bool { return r.head == 2 && r.tail == 2 })
	if got := w.sent(); !slices.Equal(got, []int{2}) {
		t.Fatalf("replies per socket write %v, want [2]", got)
	}
}
