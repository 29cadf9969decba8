package txkvclient

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"swisstm/internal/txkvwire"
)

// Pipe's flush points and its write-error contract (see the Pipe doc
// comment), each pinned on the counting connection. Every wait below is
// on an event; the timeouts only turn a hang into a failure.

const pipeTestTimeout = 5 * time.Second

var getReq = txkvwire.Req{Op: txkvwire.OpGet, Key: 1}

type recvResult struct {
	tag any
	err error
}

func recvAsync(p *Pipe) <-chan recvResult {
	ch := make(chan recvResult, 1)
	go func() {
		tag, _, _, err := p.Recv()
		ch <- recvResult{tag, err}
	}()
	return ch
}

func awaitRecv(t *testing.T, ch <-chan recvResult) recvResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(pipeTestTimeout):
		t.Fatal("Recv hangs")
		return recvResult{}
	}
}

func awaitWrite(t *testing.T, c *countingConn) {
	t.Helper()
	select {
	case <-c.wrote:
	case <-time.After(pipeTestTimeout):
		t.Fatal("no write reached the socket")
	}
}

// TestPipeRecvFlushes: one goroutine submits less than a window and then
// receives; nobody else is there to flush, so Recv must.
func TestPipeRecvFlushes(t *testing.T) {
	pc := dialCounting(t, newShapeSrv(t))
	p := newPipe(pc, 16)
	const k = 5
	for i := 0; i < k; i++ {
		if err := p.Submit(getReq, i, true, true); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := pc.writes.Load(); got != 0 {
		t.Fatalf("%d Submits below the window wrote %d times", k, got)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < k; i++ {
			if tag, _, _, err := p.Recv(); err != nil || tag != i {
				done <- errors.Join(err, errors.New("reply out of order or failed"))
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(pipeTestTimeout):
		t.Fatal("Submit×k then Recv×k hangs: Recv did not flush")
	}
	if got := pc.writes.Load(); got != 1 {
		t.Fatalf("the burst took %d writes, want 1", got)
	}
}

// TestPipeLoneSubmitReachesParkedCollector: the collector waits with
// nothing outstanding; a single Submit — whose caller then never touches
// the pipe again — must still be answered.
func TestPipeLoneSubmitReachesParkedCollector(t *testing.T) {
	pc := dialCounting(t, newShapeSrv(t))
	p := newPipe(pc, 16)
	got := recvAsync(p)
	if err := p.Submit(getReq, "lone", true, true); err != nil {
		t.Fatal(err)
	}
	if r := awaitRecv(t, got); r.err != nil || r.tag != "lone" {
		t.Fatalf("recv: tag %v, err %v", r.tag, r.err)
	}
	if n := len(p.sem); n != 0 {
		t.Fatalf("%d window slots held after the only operation completed", n)
	}
}

// TestPipeChainedSubmit: a follow-up frame the collector submits on a
// held slot goes out when the collector next blocks in Recv.
func TestPipeChainedSubmit(t *testing.T) {
	pc := dialCounting(t, newShapeSrv(t))
	p := newPipe(pc, 16)
	if err := p.Submit(getReq, "read", true, false); err != nil {
		t.Fatal(err)
	}
	if tag, last, _, err := p.Recv(); err != nil || tag != "read" || last {
		t.Fatalf("read phase: tag %v, last %v, err %v", tag, last, err)
	}
	if err := p.Submit(txkvwire.Req{Op: txkvwire.OpCAS, Key: 1, Old: 7, Val: 8}, "cas", false, true); err != nil {
		t.Fatal(err)
	}
	if got := pc.writes.Load(); got != 1 {
		t.Fatalf("the chained Submit itself wrote (%d writes, want 1)", got)
	}
	if r := awaitRecv(t, recvAsync(p)); r.err != nil || r.tag != "cas" {
		t.Fatalf("cas phase: tag %v, err %v", r.tag, r.err)
	}
	if got, held := pc.writes.Load(), len(p.sem); got != 2 || held != 0 {
		t.Fatalf("%d writes (want 2), %d slots held (want 0)", got, held)
	}
}

// TestPipeFlush: Flush writes what is buffered, once, and nothing when
// nothing is.
func TestPipeFlush(t *testing.T) {
	pc := dialCounting(t, newShapeSrv(t))
	p := newPipe(pc, 16)
	if err := p.Flush(); err != nil || pc.writes.Load() != 0 {
		t.Fatalf("Flush on an empty buffer: err %v, %d writes", err, pc.writes.Load())
	}
	for i := 0; i < 3; i++ {
		if err := p.Submit(getReq, i, true, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := p.Flush(); err != nil || pc.writes.Load() != 1 {
			t.Fatalf("Flush %d: err %v, %d writes (want 1)", i, err, pc.writes.Load())
		}
	}
	for i := 0; i < 3; i++ {
		if tag, _, _, err := p.Recv(); err != nil || tag != i {
			t.Fatalf("recv %d: tag %v, err %v", i, tag, err)
		}
	}
	if got := pc.writes.Load(); got != 1 {
		t.Fatalf("Recv after Flush wrote again: %d writes", got)
	}
}

// TestPipeWriteErrorKillsPipe: wherever the first failed write surfaces —
// a Submit blocked by the window, Recv's flush, Flush — that call returns
// it, the failing write is attempted once, every later call returns
// ErrPipeClosed without touching the socket or taking a window slot, no
// Recv waits for a frame that was never sent, and Close leaves no
// goroutine.
func TestPipeWriteErrorKillsPipe(t *testing.T) {
	const window = 2
	hit := map[string]func(p *Pipe) error{
		"submit-window-full": func(p *Pipe) error { return p.Submit(getReq, "third", true, true) },
		"recv": func(p *Pipe) error {
			_, _, _, err := p.Recv()
			return err
		},
		"flush": func(p *Pipe) error { return p.Flush() },
	}
	for name, call := range hit {
		t.Run(name, func(t *testing.T) {
			f := newShapeSrv(t)
			base := runtime.NumGoroutine()
			pc := dialCounting(t, f)
			p := newPipe(pc, window)
			for i := 0; i < window; i++ {
				if err := p.Submit(getReq, i, true, true); err != nil {
					t.Fatal(err)
				}
			}
			pc.fail.Store(true)
			if err := call(p); !errors.Is(err, errScriptedWrite) {
				t.Fatalf("the call that hit the failed write returned %v", err)
			}
			for i := 0; i < 3; i++ {
				if err := p.Submit(getReq, "late", true, true); !errors.Is(err, ErrPipeClosed) {
					t.Fatalf("Submit on the dead pipe: %v", err)
				}
				if err := p.Flush(); !errors.Is(err, ErrPipeClosed) {
					t.Fatalf("Flush on the dead pipe: %v", err)
				}
			}
			if held := len(p.sem); held != window {
				t.Fatalf("%d window slots held, want the %d of the unsent operations", held, window)
			}
			// The two queued tags belong to frames that were never sent:
			// Recv returns instead of waiting for their replies.
			for i := 0; i < window+1; i++ {
				if r := awaitRecv(t, recvAsync(p)); !errors.Is(r.err, ErrPipeClosed) {
					t.Fatalf("Recv %d on the dead pipe: %v", i, r.err)
				}
			}
			if got := pc.writes.Load(); got != 1 {
				t.Fatalf("the socket saw %d write attempts, want the failed one only", got)
			}
			p.Close()
			deadline := time.Now().Add(pipeTestTimeout)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the pipe", runtime.NumGoroutine(), base)
				}
				runtime.Gosched()
			}
		})
	}
}

// TestPipeWriteErrorWakesParkedCollector: the collector is parked on the
// socket for a reply the server withholds when another goroutine's flush
// fails; the dead pipe closes the connection under it.
func TestPipeWriteErrorWakesParkedCollector(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	f := newFakeSrv(t, func(int, txkvwire.Req) (txkvwire.Reply, bool) {
		<-hold
		return okReply()
	})
	pc := dialCounting(t, f)
	p := newPipe(pc, 4)
	if err := p.Submit(getReq, "held", true, true); err != nil {
		t.Fatal(err)
	}
	got := recvAsync(p)
	awaitWrite(t, pc) // the collector flushed and goes on to park on the socket
	pc.fail.Store(true)
	if err := p.Submit(getReq, "unsent", true, true); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); !errors.Is(err, errScriptedWrite) {
		t.Fatalf("Flush: %v", err)
	}
	if r := awaitRecv(t, got); r.err == nil {
		t.Fatal("the parked Recv returned a reply nobody sent")
	}
	if _, _, _, err := p.Recv(); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("Recv for the unsent frame: %v", err)
	}
}

// TestPipeCloseDropsBufferedFrames: Close with frames still buffered
// sends nothing, and every call after it reports the closed pipe.
func TestPipeCloseDropsBufferedFrames(t *testing.T) {
	pc := dialCounting(t, newShapeSrv(t))
	p := newPipe(pc, 4)
	if err := p.Submit(getReq, 0, true, true); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.Flush(); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	if err := p.Submit(getReq, 1, true, true); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	if got := pc.writes.Load(); got != 0 {
		t.Fatalf("Close wrote the buffered frame (%d writes)", got)
	}
}
