package txkvclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
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

// inflight reads the window slots in use.
func inflight(p *Pipe) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
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
	if n := inflight(p); n != 0 {
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
	if got, held := pc.writes.Load(), inflight(p); got != 2 || held != 0 {
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
			if held := inflight(p); held != window {
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

// rawSrv accepts connections and hands each to serve; what the scripted
// fakeSrv cannot do — garbage on the wire, replies held back, a fast echo —
// is written against the socket.
func rawSrv(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

func dialRaw(t *testing.T, addr string, window int) (*Pipe, *countingConn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	cc := &countingConn{Conn: conn, wrote: make(chan struct{}, 64)}
	return newPipe(cc, window), cc
}

// echoSrv answers every frame with the same OK reply, batching its writes
// the way the real server does; recvd counts the frames it has read.
func echoSrv(t *testing.T, recvd *atomic.Int64) string {
	reply, err := txkvwire.AppendReplyFrame(nil, txkvwire.Reply{Op: txkvwire.OpGet, Found: true, Val: 7})
	if err != nil {
		t.Fatal(err)
	}
	return rawSrv(t, func(conn net.Conn) {
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		var buf []byte
		for {
			var err error
			if buf, err = txkvwire.ReadFrame(br, buf); err != nil {
				return
			}
			recvd.Add(1)
			bw.Write(reply)
			if !txkvwire.FrameBuffered(br) && bw.Flush() != nil {
				return
			}
		}
	})
}

func submitAsync(p *Pipe, tag any, first, last bool) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- p.Submit(getReq, tag, first, last) }()
	return ch
}

func awaitErr(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(pipeTestTimeout):
		t.Fatalf("%s hangs", what)
		return nil
	}
}

// TestPipeReadErrorClosesPipe: the server drops the connection, or sends
// a frame that does not decode, with the window full and the submitter
// parked on it. The failed Recv has consumed a tag, so the pipe is dead:
// the parked Submit returns ErrPipeClosed with nobody calling Close.
func TestPipeReadErrorClosesPipe(t *testing.T) {
	for name, answer := range map[string][]byte{
		"dropped":     nil,
		"undecodable": {3, 0, 0, 0, 0xff, 0xff, 0xff},
	} {
		t.Run(name, func(t *testing.T) {
			addr := rawSrv(t, func(conn net.Conn) {
				if _, err := txkvwire.ReadFrame(conn, nil); err == nil && answer != nil {
					conn.Write(answer)
					io.Copy(io.Discard, conn) // keep the connection: the frame is the failure
				}
			})
			const window = 2
			p, pc := dialRaw(t, addr, window)
			for i := 0; i < window; i++ {
				if err := p.Submit(getReq, i, true, true); err != nil {
					t.Fatal(err)
				}
			}
			parked := submitAsync(p, "parked", true, true)
			awaitWrite(t, pc) // it flushed, and parks in the same critical section
			if r := awaitRecv(t, recvAsync(p)); r.err == nil || errors.Is(r.err, ErrPipeClosed) || r.tag != 0 {
				t.Fatalf("Recv of the lost reply: tag %v, err %v (want tag 0 and the read's own error)", r.tag, r.err)
			}
			if err := awaitErr(t, parked, "the parked Submit"); !errors.Is(err, ErrPipeClosed) {
				t.Fatalf("the parked Submit returned %v", err)
			}
			if _, _, _, err := p.Recv(); !errors.Is(err, ErrPipeClosed) {
				t.Fatalf("Recv after the failed read: %v", err)
			}
			if err := p.Flush(); !errors.Is(err, ErrPipeClosed) {
				t.Fatalf("Flush after the failed read: %v", err)
			}
		})
	}
}

// TestPipeWindowIsExact: with the replies held back the server sees
// exactly window frames, the window+1st Submit parks, and each reply
// read lets exactly one more operation in.
func TestPipeWindowIsExact(t *testing.T) {
	const window, extra = 4, 3
	// One token of slack: the release below may come before the server has
	// the frame it answers — a late frame is only flushed by the Recv that
	// follows the release.
	hold := make(chan struct{}, 1)
	var recvd atomic.Int64
	f := newFakeSrv(t, func(int, txkvwire.Req) (txkvwire.Reply, bool) {
		recvd.Add(1)
		<-hold
		return okReply()
	})
	pc := dialCounting(t, f)
	p := newPipe(pc, window)
	for i := 0; i < window; i++ {
		if err := p.Submit(getReq, i, true, true); err != nil {
			t.Fatal(err)
		}
	}
	rest := make(chan error, 1)
	go func() {
		for i := window; i < window+extra; i++ {
			if err := p.Submit(getReq, i, true, true); err != nil {
				rest <- err
				return
			}
		}
		rest <- nil
	}()
	awaitWrite(t, pc)
	if n := inflight(p); n != window {
		t.Fatalf("%d operations in flight with the submitter parked, window %d", n, window)
	}
	for i := 0; i < window+extra; i++ {
		hold <- struct{}{}
		if tag, _, _, err := p.Recv(); err != nil || tag != i {
			t.Fatalf("recv %d: tag %v, err %v", i, tag, err)
		}
		if n := inflight(p); n > window {
			t.Fatalf("%d operations in flight after reply %d, window %d", n, i, window)
		}
	}
	if err := awaitErr(t, rest, "the submitter"); err != nil {
		t.Fatal(err)
	}
	if n, got := inflight(p), recvd.Load(); n != 0 || got != window+extra {
		t.Fatalf("%d in flight at the end, server saw %d frames (want 0, %d)", n, got, window+extra)
	}
}

// TestPipeChainWhileSubmitterParked: the collector chains a follow-up
// frame on the slot it holds while the submitter is parked on the full
// window; the chained frame goes first, the parked one after the slot
// is released.
func TestPipeChainWhileSubmitterParked(t *testing.T) {
	pc := dialCounting(t, newShapeSrv(t))
	p := newPipe(pc, 1)
	if err := p.Submit(getReq, "read", true, false); err != nil {
		t.Fatal(err)
	}
	parked := submitAsync(p, "next", true, true)
	awaitWrite(t, pc)
	if tag, last, _, err := p.Recv(); err != nil || tag != "read" || last {
		t.Fatalf("read phase: tag %v, last %v, err %v", tag, last, err)
	}
	if err := p.Submit(getReq, "cas", false, true); err != nil {
		t.Fatalf("chained Submit beside a parked submitter: %v", err)
	}
	select {
	case err := <-parked:
		t.Fatalf("the parked Submit got past a held window slot (err %v)", err)
	default:
	}
	for _, want := range []string{"cas", "next"} {
		if r := awaitRecv(t, recvAsync(p)); r.err != nil || r.tag != want {
			t.Fatalf("recv: tag %v, err %v (want %q)", r.tag, r.err, want)
		}
	}
	if err := awaitErr(t, parked, "the parked Submit"); err != nil {
		t.Fatal(err)
	}
	if n := inflight(p); n != 0 {
		t.Fatalf("%d window slots held at the end", n)
	}
}

// TestPipeCloseWakesBothParties: a chained operation holds the only slot
// with no frame outstanding, so the submitter is parked on the window and
// the collector on the empty tag queue; Close wakes both.
func TestPipeCloseWakesBothParties(t *testing.T) {
	pc := dialCounting(t, newShapeSrv(t))
	p := newPipe(pc, 1)
	if err := p.Submit(getReq, "read", true, false); err != nil {
		t.Fatal(err)
	}
	if tag, _, _, err := p.Recv(); err != nil || tag != "read" {
		t.Fatalf("read phase: tag %v, err %v", tag, err)
	}
	sub, col := submitAsync(p, "next", true, true), recvAsync(p)
	select {
	case err := <-sub:
		t.Fatalf("Submit returned %v with the window full", err)
	case r := <-col:
		t.Fatalf("Recv returned tag %v, err %v with nothing outstanding", r.tag, r.err)
	case <-time.After(20 * time.Millisecond): // both had time to park; not needed for the verdict
	}
	p.Close()
	if err := awaitErr(t, sub, "the parked Submit"); !errors.Is(err, ErrPipeClosed) {
		t.Fatalf("the parked Submit returned %v", err)
	}
	if r := awaitRecv(t, col); !errors.Is(r.err, ErrPipeClosed) {
		t.Fatalf("the parked Recv returned %v", r.err)
	}
}

// TestPipeHammer: a submitter and a collector that chains every third
// operation push 100 000 operations through windows 1, 2 and 16. Every
// tag comes back once, in wire order; neither the client's count nor the
// frames the server holds unanswered ever exceed the window; nothing is
// left running.
func TestPipeHammer(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 10_000
	}
	for _, window := range []int{1, 2, 16} {
		t.Run(fmt.Sprint("window=", window), func(t *testing.T) {
			base := runtime.NumGoroutine()
			var recvd atomic.Int64
			p, _ := dialRaw(t, echoSrv(t, &recvd), window)
			type opTag struct {
				id      int
				chained bool
			}
			subErr := make(chan error, 1)
			go func() {
				for i := 0; i < ops; i++ {
					if err := p.Submit(getReq, &opTag{id: i, chained: i%3 == 0}, true, i%3 != 0); err != nil {
						subErr <- fmt.Errorf("submit %d: %w", i, err)
						return
					}
				}
				subErr <- nil
			}()
			frames, next := int64(0), 0
			for done := 0; done < ops; {
				tag, last, _, err := p.Recv()
				if err != nil {
					t.Fatalf("recv after %d operations: %v", done, err)
				}
				frames++
				if n := inflight(p); n > window {
					t.Fatalf("%d operations in flight, window %d", n, window)
				}
				if out := recvd.Load() - frames; out > int64(window) {
					t.Fatalf("the server has read %d frames beyond the replies received, window %d", out, window)
				}
				ot := tag.(*opTag)
				switch {
				case ot.chained && !last:
					// First frames come back in submit order; chain, or give
					// the slot back, alternately.
					if ot.id != next {
						t.Fatalf("first frame of operation %d arrived, want %d", ot.id, next)
					}
					next++
					ot.chained = false
					if ot.id%2 == 0 {
						if err := p.Submit(getReq, ot, false, true); err != nil {
							t.Fatalf("chain %d: %v", ot.id, err)
						}
						continue
					}
					p.Release()
				case ot.chained || !last:
					t.Fatalf("operation %d: chained %v, last %v", ot.id, ot.chained, last)
				case ot.id%3 != 0:
					if ot.id != next {
						t.Fatalf("operation %d arrived, want %d", ot.id, next)
					}
					next++
				}
				done++
			}
			if err := awaitErr(t, subErr, "the submitter"); err != nil {
				t.Fatal(err)
			}
			if n := inflight(p); n != 0 {
				t.Fatalf("%d window slots held after the last operation", n)
			}
			p.Close()
			deadline := time.Now().Add(pipeTestTimeout)
			for runtime.NumGoroutine() > base+2 { // the echo server's accept loop and connection end at cleanup
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the pipe", runtime.NumGoroutine(), base)
				}
				runtime.Gosched()
			}
		})
	}
}
