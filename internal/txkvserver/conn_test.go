package txkvserver

import (
	"bufio"
	"fmt"
	"io"
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

// runPipe submits n requests from its own goroutine on a Pipe of the
// given window while the calling goroutine checks each of the n in-order
// replies; the tag of request i must be i.
func runPipe(addr string, window, n int, req func(i int) txkvwire.Req, check func(i int, reply txkvwire.Reply) error) error {
	p, err := txkvclient.DialPipe(addr, window)
	if err != nil {
		return err
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
			return fmt.Errorf("recv %d: %w", i, err)
		}
		if tag.(int) != i {
			return fmt.Errorf("reply %d carries tag %v: replies out of request order", i, tag)
		}
		if err := check(i, reply); err != nil {
			return err
		}
	}
	if err := <-errc; err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	return nil
}

// pipeline is runPipe for a test's own goroutine and requests that must
// all succeed.
func pipeline(t *testing.T, addr string, window, n int, req func(i int) txkvwire.Req, check func(i int, reply txkvwire.Reply)) {
	t.Helper()
	err := runPipe(addr, window, n, req, func(i int, reply txkvwire.Reply) error {
		if reply.Err != "" {
			return fmt.Errorf("reply %d: %s", i, reply.Err)
		}
		check(i, reply)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines waits for the process to fall back to at most limit
// goroutines: the goroutines of closed connections exit on their own,
// shortly after the close.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want at most %d: a connection goroutine did not exit",
				runtime.NumGoroutine(), limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// putFrames returns n Put frames on one key, values base, base+1, ….
func putFrames(t *testing.T, key uint64, base, n int) []byte {
	t.Helper()
	var out []byte
	var err error
	for i := 0; i < n; i++ {
		if out, err = txkvwire.AppendReqFrame(out, txkvwire.Req{Op: txkvwire.OpPut, Key: key, Val: uint64(base + i)}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// replyReader reads a raw connection's reply frames one by one.
type replyReader struct {
	br   *bufio.Reader
	fbuf []byte
}

func newReplyReader(nc net.Conn) *replyReader {
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	return &replyReader{br: bufio.NewReader(nc)}
}

func (r *replyReader) next() (reply txkvwire.Reply, err error) {
	if r.fbuf, err = txkvwire.ReadFrame(r.br, r.fbuf); err != nil {
		return reply, err
	}
	return txkvwire.DecodeReply(r.fbuf)
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
// first Put is held queued on its shard while the Batch behind it is read.
func TestPooledRequestSeesCoalescedWrite(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 64, Config{})
	time.AfterFunc(20*time.Millisecond, holdShard(t, srv, 9))
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
// replies, and then streams. The first put is held queued on its shard
// while the Subscribe is read.
func TestSubscribeAckedAfterCoalescedReplies(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 64, Config{})
	time.AfterFunc(20*time.Millisecond, holdShard(t, srv, 1))
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
// the server holds one goroutine per connection on both paths, however
// many requests are in flight. (The test adds two per connection: its
// collector and the pipe's submitter.)
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
				var cl *txkvclient.Client
				srv, cl = startServer(t, "swisstm", 256)
				if _, err := cl.Len(); err != nil { // cl's serving goroutine is up: it belongs to idle
					t.Fatal(err)
				}
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
			// Sampler + per connection: the connection goroutine, the
			// test's collector and the pipe's submitter.
			if got, limit := <-peak, idle+1+3*conns+4; got > limit {
				t.Fatalf("%d goroutines under %d×%d in-flight requests (idle %d, limit %d): something spawns per request",
					got, conns, window, idle, limit)
			}
			// And none of them outlives its connection.
			waitGoroutines(t, idle)
		})
	}
}

// TestRingKeepsRequestOrder is the reply ring's first contract: 8
// connections × window 16 × 2000 requests over keys on every shard, so a
// connection's items complete in whatever order 16 shard workers flush
// them. Every reply sits at its request's position, a Get (or a CAS)
// behind a Put of the same key sees it, and the pooled request
// interleaved every 50th — a Len or a Batch{Get k} — is answered in
// place and sees the coalesced write before it.
func TestRingKeepsRequestOrder(t *testing.T) {
	const conns, window, perConn, keysPerConn = 8, 16, 2000, 64
	srv := startCoalesced(t, "swisstm", conns*keysPerConn, Config{Pipeline: window})
	shards := make(map[int]bool)
	for k := 1; k <= conns*keysPerConn; k++ {
		shards[srv.store.ShardOf(stm.Word(k))] = true
	}
	if len(shards) != srv.store.Shards() {
		t.Fatalf("keys cover %d of %d shards", len(shards), srv.store.Shards())
	}

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		// The connection's script and the reply each request must get,
		// from a model of its private keys.
		reqs := make([]txkvwire.Req, perConn)
		want := make([]txkvwire.Reply, perConn)
		model := make(map[uint64]uint64)
		var lastPut uint64
		for i := range reqs {
			k := uint64(1 + c*keysPerConn + (i/3*7)%keysPerConn)
			if _, ok := model[k]; !ok {
				model[k] = uint64(srv.cfg.Balance)
			}
			switch {
			case i%100 == 49:
				reqs[i] = txkvwire.Req{Op: txkvwire.OpLen}
				want[i] = txkvwire.Reply{Op: txkvwire.OpLen, Val: conns * keysPerConn}
			case i%100 == 99 && lastPut != 0:
				reqs[i] = txkvwire.Req{Op: txkvwire.OpBatch, Sub: []txkvwire.Req{{Op: txkvwire.OpGet, Key: lastPut}}}
				want[i] = txkvwire.Reply{Op: txkvwire.OpBatch, Val: model[lastPut]}
			case i%3 == 0:
				reqs[i] = txkvwire.Req{Op: txkvwire.OpPut, Key: k, Val: uint64(i)}
				want[i] = txkvwire.Reply{Op: txkvwire.OpPut}
				model[k], lastPut = uint64(i), k
			case i%3 == 1:
				reqs[i] = txkvwire.Req{Op: txkvwire.OpGet, Key: k}
				want[i] = txkvwire.Reply{Op: txkvwire.OpGet, Found: true, Val: model[k]}
			default:
				reqs[i] = txkvwire.Req{Op: txkvwire.OpCAS, Key: k, Old: model[k], Val: uint64(1_000_000 + i)}
				want[i] = txkvwire.Reply{Op: txkvwire.OpCAS, OK: true}
				model[k] = uint64(1_000_000 + i)
			}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			err := runPipe(srv.Addr().String(), window, perConn,
				func(i int) txkvwire.Req { return reqs[i] },
				func(i int, got txkvwire.Reply) error {
					w := want[i]
					if got.Op == txkvwire.OpBatch && len(got.Sub) == 1 {
						got.Val = got.Sub[0].Val // the batch's one Get
					}
					if got.Err != "" || got.Op != w.Op || got.Val != w.Val || got.Found != w.Found || got.OK != w.OK {
						return fmt.Errorf("conn %d reply %d to %+v: got %+v, want %+v", c, i, reqs[i], got, w)
					}
					return nil
				})
			if err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
}

// TestPipelineWindowIsExact is the second: Pipeline is the number of
// coalesced items a connection has in flight, not that plus the reply
// being written and the item being admitted. 64 puts pipelined at one
// shard whose batches could hold them all, the first ones held queued
// while the connection fills its window: no batch holds more than the
// window's 4.
func TestPipelineWindowIsExact(t *testing.T) {
	const window, puts = 4, 64
	srv := startCoalesced(t, "swisstm", 64, Config{Pipeline: window, CoalesceBatch: 64})
	time.AfterFunc(20*time.Millisecond, holdShard(t, srv, 1))
	pipeline(t, srv.Addr().String(), puts, puts,
		func(i int) txkvwire.Req { return txkvwire.Req{Op: txkvwire.OpPut, Key: 1, Val: uint64(i)} },
		func(int, txkvwire.Reply) {})
	h := srv.coM.BatchSize.Snapshot()
	if h.Sum != 1+puts {
		t.Fatalf("%d items executed in batches, want the hold's and %d", h.Sum, puts)
	}
	for size := window + 1; size < len(h.Buckets); size++ { // sizes below 16 have a bucket each
		if h.Buckets[size] != 0 {
			t.Fatalf("%d batch(es) in the size-%d bucket with a window of %d", h.Buckets[size], size, window)
		}
	}
}

// burstOnHeldShard writes window-1 puts on key 1, values 100, 101, …,
// and a marker put on another shard, on a new connection, with key 1's
// shard held; it returns once all of them are in flight — the puts queued
// on the held shard, the marker executed — with the hold's release.
func burstOnHeldShard(t *testing.T, srv *Server, window int) (nc net.Conn, release func()) {
	t.Helper()
	release = holdShard(t, srv, 1)
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	burst := putFrames(t, 1, 100, window-1)
	if burst, err = txkvwire.AppendReqFrame(burst, txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(otherShardKey(srv, 1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, srv, 2)
	return nc, release
}

// TestClientGoneWithItemsInFlight is the third, teardown: the client goes
// away (orderly, or with a reset that makes the reply write fail) while
// its whole window is in flight, held queued on a shard. The accepted
// items still execute, the connection goroutine answers or discards
// them, and exits.
func TestClientGoneWithItemsInFlight(t *testing.T) {
	for _, reset := range []bool{false, true} {
		name := "close"
		if reset {
			name = "reset"
		}
		t.Run(name, func(t *testing.T) {
			const window = 16
			srv := startCoalesced(t, "swisstm", 64, Config{Pipeline: window, CoalesceBatch: 64})
			idle := runtime.NumGoroutine()
			nc, release := burstOnHeldShard(t, srv, window)
			if reset {
				nc.(*net.TCPConn).SetLinger(0)
			}
			nc.Close()
			release()
			waitGoroutines(t, idle)
			if got := srv.coM.Items.Load(); got != 1+window {
				t.Fatalf("%d items executed, want the hold's and the %d accepted", got, window)
			}
			srv.mu.Lock()
			left := len(srv.conns)
			srv.mu.Unlock()
			if left != 0 {
				t.Fatalf("%d connections still registered", left)
			}
		})
	}
}

// TestDrainAcksItemsInFlight: a Drain that begins with a window of items
// in flight, held queued on a shard, acks every request the connection
// accepted, in order, before closing it; the store holds exactly the
// acked writes.
func TestDrainAcksItemsInFlight(t *testing.T) {
	const window = 16
	srv := startCoalesced(t, "swisstm", 64, Config{Pipeline: window, CoalesceBatch: 64})
	nc, release := burstOnHeldShard(t, srv, window)
	defer nc.Close()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	for !srv.draining.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	release()

	replies := newReplyReader(nc)
	acked := 0
	for {
		reply, err := replies.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d replies: %v", acked, err)
		}
		if reply.Op != txkvwire.OpPut || reply.Err != "" {
			t.Fatalf("reply %d: %+v, want a put's ack", acked, reply)
		}
		acked++
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if acked != window {
		t.Fatalf("%d of the %d accepted requests acked: the drain dropped items in flight", acked, window)
	}
	w := <-srv.pool
	val := stm.AtomicRO(w.th, func(tx stm.TxRO) stm.Word {
		v, _ := srv.store.Get(tx, 1)
		return v
	})
	srv.pool <- w
	if want := stm.Word(100 + window - 2); val != want {
		t.Fatalf("key 1 = %d after every ack, want %d: an acked put was not applied", val, want)
	}
}

// TestShardQueueFullRepliesInOrder: with its worker held in a flush, a
// shard queue fills to its cap (256 at CoalesceBatch 8) and refuses the
// next item. The connection goroutine answers that request Overloaded at
// its own position — behind the replies of everything in flight, ahead of
// the requests after it — and books the shed as queue-full.
func TestShardQueueFullRepliesInOrder(t *testing.T) {
	const reqs, queueCap = 300, 256
	srv := startCoalesced(t, "swisstm", 64, Config{Pipeline: 512, CoalesceBatch: 8})
	opAt := func(i int) txkvwire.Op {
		if i%2 == 0 {
			return txkvwire.OpPut
		}
		return txkvwire.OpGet
	}
	var out []byte
	var err error
	for i := 0; i < reqs; i++ {
		if out, err = txkvwire.AppendReqFrame(out, txkvwire.Req{Op: opAt(i), Key: 1, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	release := holdShard(t, srv, 1)
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.m.shedQueueFull.Load() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held shard's queue never refused an item")
		}
	}
	release()

	replies := newReplyReader(nc)
	first, overloaded := -1, 0
	for i := 0; i < reqs; i++ {
		reply, err := replies.next()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		switch {
		case reply.Op != opAt(i):
			t.Fatalf("reply %d is a %s reply, want the %s's: replies out of request order", i, reply.Op, opAt(i))
		case reply.Code == txkvwire.CodeOverloaded:
			if overloaded++; first < 0 {
				first = i
			}
		case reply.Err != "":
			t.Fatalf("reply %d: %s", i, reply.Err)
		}
	}
	// The held flush took only the hold's item out of the queue: the cap's
	// worth behind it was accepted, and the next request is the first
	// refused.
	if first != queueCap {
		t.Fatalf("first Overloaded reply at position %d, want %d", first, queueCap)
	}
	if got := srv.m.shedQueueFull.Load(); got != uint64(overloaded) {
		t.Fatalf("%d Overloaded replies, %d queue-full sheds counted", overloaded, got)
	}
}

// TestBatchBuffersReused pins the lifetime of the connection's Batch
// buffers (DESIGN.md §10.2). One pipelined connection, coalescing on and
// window 16, interleaves 256-Get Batches over disjoint key ranges, a
// Batch of 3, coalesced Puts to keys those Batches read, and a Batch that
// a CAS miss fails. Every Batch reply has its own length and the values
// of its own keys as of its place in the connection's order: no reply
// carries a sub-reply or a sub-request of the Batch before it.
func TestBatchBuffersReused(t *testing.T) {
	const window, ranges, rounds = 16, 4, 12
	const keys = ranges * txkvwire.MaxBatch
	srv := startCoalesced(t, "swisstm", keys, Config{Pipeline: window})
	model := make(map[uint64]uint64, keys)
	for k := uint64(1); k <= keys; k++ {
		model[k] = uint64(srv.cfg.Balance)
	}
	var reqs []txkvwire.Req
	var want []txkvwire.Reply
	add := func(req txkvwire.Req, reply txkvwire.Reply) {
		reqs, want = append(reqs, req), append(want, reply)
	}
	gets := func(ks ...uint64) {
		req := txkvwire.Req{Op: txkvwire.OpBatch}
		reply := txkvwire.Reply{Op: txkvwire.OpBatch}
		for _, k := range ks {
			req.Sub = append(req.Sub, txkvwire.Req{Op: txkvwire.OpGet, Key: k})
			reply.Sub = append(reply.Sub, txkvwire.Reply{Op: txkvwire.OpGet, Found: true, Val: model[k]})
		}
		add(req, reply)
	}
	put := func(k uint64) {
		v := uint64(1_000_000 + len(reqs))
		add(txkvwire.Req{Op: txkvwire.OpPut, Key: k, Val: v}, txkvwire.Reply{Op: txkvwire.OpPut})
		model[k] = v
	}
	for r := 0; r < rounds; r++ {
		lo := uint64(1 + r%ranges*txkvwire.MaxBatch)
		ks := make([]uint64, txkvwire.MaxBatch)
		for i := range ks {
			ks[i] = lo + uint64(i)
		}
		gets(ks...)
		k := lo + uint64(r*37%txkvwire.MaxBatch)
		put(k)
		put(lo + 1)
		gets(k, lo+1, lo+2)
		// Rolled back: the Put before the miss must not show.
		add(txkvwire.Req{Op: txkvwire.OpBatch, Sub: []txkvwire.Req{
			{Op: txkvwire.OpPut, Key: lo + 2, Val: 7},
			{Op: txkvwire.OpCAS, Key: k, Old: model[k] + 1, Val: 9},
		}}, txkvwire.Reply{Op: txkvwire.OpBatch, Code: txkvwire.CodeRejected})
	}
	err := runPipe(srv.Addr().String(), window, len(reqs),
		func(i int) txkvwire.Req { return reqs[i] },
		func(i int, got txkvwire.Reply) error {
			w := want[i]
			if w.Code != 0 {
				if got.Op != w.Op || got.Code != w.Code {
					return fmt.Errorf("reply %d: got %v %q, want a %v error", i, got.Code, got.Err, w.Code)
				}
				return nil
			}
			if got.Err != "" || got.Op != w.Op || len(got.Sub) != len(w.Sub) {
				return fmt.Errorf("reply %d: got %v with %d sub-replies (%q), want %v with %d",
					i, got.Op, len(got.Sub), got.Err, w.Op, len(w.Sub))
			}
			for j, ws := range w.Sub {
				if gs := got.Sub[j]; gs.Err != "" || gs.Op != ws.Op || gs.Found != ws.Found || gs.Val != ws.Val {
					return fmt.Errorf("reply %d, sub-reply %d (key %d): got %+v, want %+v",
						i, j, reqs[i].Sub[j].Key, got.Sub[j], w.Sub[j])
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
