package txkvserver

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"swisstm/internal/stm"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvwire"
)

// The connection model (DESIGN.md §14.2): one goroutine per connection
// executes requests in the order they were sent; only coalesced items
// leave it, and everything else waits for them. These tests pin the
// ordering that buys and the goroutine shape behind it.

// pipeline runs submit on its own goroutine against a Pipe of the given
// window while the calling goroutine checks each of the n in-order
// replies; the tag of request i must be i.
func pipeline(t *testing.T, addr string, window, n int, req func(i int) txkvwire.Req, check func(i int, reply txkvwire.Reply)) {
	t.Helper()
	p, err := txkvclient.DialPipe(addr, window)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := p.Submit(req(i), i, true, true); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		tag, _, reply, err := p.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if tag.(int) != i {
			t.Fatalf("reply %d carries tag %v: replies out of request order", i, tag)
		}
		if reply.Err != "" {
			t.Fatalf("reply %d: %s", i, reply.Err)
		}
		check(i, reply)
	}
	if err := <-errc; err != nil {
		t.Fatalf("submit: %v", err)
	}
}

// TestPooledPipelineReadsOwnWrites: with coalescing off, a Get pipelined
// behind a Put of the same key — both in flight at once, window 16 —
// always observes that Put. Per-request goroutines raced such pairs
// through the thread pool.
func TestPooledPipelineReadsOwnWrites(t *testing.T) {
	srv, _ := startServer(t, "swisstm", 64)
	const pairs = 1000
	pipeline(t, srv.Addr().String(), 16, 2*pairs,
		func(i int) txkvwire.Req {
			if i%2 == 0 {
				return txkvwire.Req{Op: txkvwire.OpPut, Key: 7, Val: uint64(1000 + i)}
			}
			return txkvwire.Req{Op: txkvwire.OpGet, Key: 7}
		},
		func(i int, reply txkvwire.Reply) {
			if i%2 == 1 && (!reply.Found || reply.Val != uint64(1000+i-1)) {
				t.Fatalf("get %d saw (%d, %v), want the value %d its own connection just put",
					i, reply.Val, reply.Found, 1000+i-1)
			}
		})
}

// TestPooledRequestSeesCoalescedWrite: with coalescing on, a Batch (which
// runs on the connection goroutine through the thread pool) pipelined
// directly behind a coalesced Put observes it — the connection waits for
// its in-flight coalesced replies before executing anything else. The
// long gather window keeps the Put queued when the Batch arrives.
func TestPooledRequestSeesCoalescedWrite(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 64, Config{CoalesceWait: 2 * time.Millisecond})
	const pairs = 100
	pipeline(t, srv.Addr().String(), 16, 2*pairs,
		func(i int) txkvwire.Req {
			if i%2 == 0 {
				return txkvwire.Req{Op: txkvwire.OpPut, Key: 9, Val: uint64(5000 + i)}
			}
			return txkvwire.Req{Op: txkvwire.OpBatch, Sub: []txkvwire.Req{{Op: txkvwire.OpGet, Key: 9}}}
		},
		func(i int, reply txkvwire.Reply) {
			if i%2 == 0 {
				return
			}
			if len(reply.Sub) != 1 || !reply.Sub[0].Found || reply.Sub[0].Val != uint64(5000+i-1) {
				t.Fatalf("batch %d read %+v, want the coalesced put's value %d", i, reply.Sub, 5000+i-1)
			}
		})
	if st := srv.statsSnapshot(); st.CoalesceItems < pairs {
		t.Fatalf("only %d coalesced items for %d puts: the puts did not ride the batchers", st.CoalesceItems, pairs)
	}
}

// TestSubscribeAckedAfterCoalescedReplies: a Subscribe pipelined behind
// 16 coalesced puts, all in one segment, is acked only after all 16
// replies, and then streams.
func TestSubscribeAckedAfterCoalescedReplies(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 64, Config{CoalesceWait: 2 * time.Millisecond})
	shard := srv.store.ShardOf(stm.Word(3))
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const puts = 16
	var out []byte
	for i := 0; i < puts; i++ {
		if out, err = txkvwire.AppendReqFrame(out, txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(1 + i), Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if out, err = txkvwire.AppendReqFrame(out, txkvwire.Req{Op: txkvwire.OpSubscribe, Shard: int32(shard)}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	var fbuf []byte
	next := func(i int) txkvwire.Reply {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if fbuf, err = txkvwire.ReadFrame(br, fbuf); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		reply, err := txkvwire.DecodeReply(fbuf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if reply.Err != "" {
			t.Fatalf("frame %d: %s", i, reply.Err)
		}
		return reply
	}
	for i := 0; i < puts; i++ {
		if reply := next(i); reply.Op != txkvwire.OpPut {
			t.Fatalf("frame %d is a %s reply, want the put's: the subscribe overtook it", i, reply.Op)
		}
	}
	if ack := next(puts); ack.Op != txkvwire.OpSubscribe || len(ack.Events) != 0 {
		t.Fatalf("frame %d is %+v, want the empty subscribe ack", puts, ack)
	}
	// The connection is a feed now: a later commit on the shard arrives.
	cl, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put(3, 77); err != nil {
		t.Fatal(err)
	}
	for i := puts + 1; ; i++ {
		if ev := next(i).Events; len(ev) > 0 {
			if ev[0].Key != 3 || ev[0].Val != 77 {
				t.Fatalf("first streamed event %+v, want key 3 = 77", ev[0])
			}
			return
		}
	}
}

// TestNoPerRequestGoroutines: under 8 pipelined connections × window 16
// the process holds a bounded number of goroutines per connection — one
// on the server with coalescing off, two with it on — however many
// requests are in flight. (The test's own pipes add two each.)
func TestNoPerRequestGoroutines(t *testing.T) {
	const conns, window, perConn = 8, 16, 4000
	for _, coalesce := range []bool{false, true} {
		name := "pooled"
		if coalesce {
			name = "coalesced"
		}
		t.Run(name, func(t *testing.T) {
			var srv *Server
			if coalesce {
				srv = startCoalesced(t, "swisstm", 256, Config{})
			} else {
				srv, _ = startServer(t, "swisstm", 256)
			}
			idle := runtime.NumGoroutine()

			stop := make(chan struct{})
			peak := make(chan int)
			go func() {
				max := 0
				for {
					select {
					case <-stop:
						peak <- max
						return
					default:
					}
					if n := runtime.NumGoroutine(); n > max {
						max = n
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					p, err := txkvclient.DialPipe(srv.Addr().String(), window)
					if err != nil {
						t.Error(err)
						return
					}
					defer p.Close()
					go func() {
						for i := 0; i < perConn; i++ {
							req := txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(1 + (c*31+i)%256), Val: uint64(i)}
							if p.Submit(req, i, true, true) != nil {
								return
							}
						}
					}()
					for i := 0; i < perConn; i++ {
						if _, _, reply, err := p.Recv(); err != nil || reply.Err != "" {
							t.Errorf("conn %d reply %d: %v %s", c, i, err, reply.Err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(stop)
			// Sampler + per connection: serving goroutine, reply writer
			// (coalescing on), the pipe's collector and submitter.
			if got, limit := <-peak, idle+1+4*conns+4; got > limit {
				t.Fatalf("%d goroutines under %d×%d in-flight requests (idle %d, limit %d): something spawns per request",
					got, conns, window, idle, limit)
			}
		})
	}
}
