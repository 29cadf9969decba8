package txkvserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvwire"
)

// startCoalesced boots a server with the per-shard batchers on.
func startCoalesced(t *testing.T, kind string, keys int, cfg Config) *Server {
	t.Helper()
	cfg.Engine = harness.EngineSpec{Kind: kind, Manager: "polka"}
	cfg.Keys = keys
	if cfg.CoalesceBatch == 0 {
		cfg.CoalesceBatch = 8
	}
	srv, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("start %s server: %v", kind, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// holdSink is the sink of a hold's item: Complete blocks its shard worker
// until the hold is released.
type holdSink struct {
	entered, released chan struct{}
}

func (h holdSink) Complete(coalesce.Result) {
	close(h.entered)
	<-h.released
}

// holdShard parks the shard worker of key inside a flush: the worker
// completes a one-item Get batch into a sink that blocks until release.
// Everything enqueued on that shard meanwhile stays queued, and is what
// the worker takes next. The held Get counts as one executed item (not
// as a request). release is idempotent and also runs at cleanup, ahead of
// the server's Close.
func holdShard(t *testing.T, srv *Server, key stm.Word) (release func()) {
	t.Helper()
	h := holdSink{entered: make(chan struct{}), released: make(chan struct{})}
	release = sync.OnceFunc(func() { close(h.released) })
	t.Cleanup(release)
	it := new(coalesce.Item)
	it.Init(coalesce.OpGet, key, 0, 0, time.Time{}, h)
	if code, msg := srv.co.Enqueue(it); code != 0 {
		t.Fatalf("hold refused: %v %q", code, msg)
	}
	select {
	case <-h.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("the worker of key %d's shard never flushed the hold", key)
	}
	return release
}

// otherShardKey returns a key whose shard is not key's.
func otherShardKey(srv *Server, key stm.Word) stm.Word {
	k := key + 1
	for srv.store.ShardOf(k) == srv.store.ShardOf(key) {
		k++
	}
	return k
}

// waitInFlight waits until the server's coalescer has executed n items.
// A test that ends a burst on a held shard with a marker request on
// another shard waits for the hold and the marker (n = 2): a connection
// enqueues in request order, so every request before the marker is then
// queued on the held shard, unflushed until the test releases it.
func waitInFlight(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.coM.Items.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d items executed: the burst was not enqueued", srv.coM.Items.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPipelinedRepliesInOrder pins the pipelining contract (DESIGN.md
// §14.2): many requests in flight on one connection, replies in exactly
// request order.
func TestPipelinedRepliesInOrder(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 256, Config{Pipeline: 8})
	pipeline(t, srv.Addr().String(), 8, 64,
		func(i int) txkvwire.Req {
			// Interleave writes and reads so replies cross batcher flushes.
			if i%3 == 2 {
				// Read back the key the Put two requests earlier wrote.
				return txkvwire.Req{Op: txkvwire.OpGet, Key: uint64(1 + (i-2)%32)}
			}
			return txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(1 + i%32), Val: uint64(i)}
		},
		func(i int, reply txkvwire.Reply) {
			// The Get at i reads the Put from i-2 on the same key; in-order
			// execution of a pipelined connection makes the value exact.
			if reply.Op == txkvwire.OpGet && (!reply.Found || reply.Val != uint64(i-2)) {
				t.Fatalf("pipelined get %d saw (%d, %v), want value %d", i, reply.Val, reply.Found, i-2)
			}
		})
}

// TestCoalescedOpsOverWire drives every single-key op through the
// batchers over real TCP and checks results are indistinguishable from
// the pooled path while the stats prove batching actually happened.
func TestCoalescedOpsOverWire(t *testing.T) {
	for _, kind := range engineKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			srv := startCoalesced(t, kind, 128, Config{Pipeline: 16})
			p, err := txkvclient.DialPipe(srv.Addr().String(), 16)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			const n = 200
			errc := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					k := uint64(1 + i%64)
					var req txkvwire.Req
					switch i % 4 {
					case 0:
						req = txkvwire.Req{Op: txkvwire.OpPut, Key: k, Val: uint64(i)}
					case 1:
						req = txkvwire.Req{Op: txkvwire.OpGet, Key: k}
					case 2:
						req = txkvwire.Req{Op: txkvwire.OpCAS, Key: k, Old: uint64(i), Val: 1}
					default:
						req = txkvwire.Req{Op: txkvwire.OpDelete, Key: 100 + k}
					}
					if err := p.Submit(req, i, true, true); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			for i := 0; i < n; i++ {
				if _, _, reply, err := p.Recv(); err != nil || reply.Err != "" {
					t.Fatalf("reply %d: %v / %q", i, err, reply.Err)
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}

			cl, err := txkvclient.Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			st, err := cl.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.CoalesceBatches == 0 || st.CoalesceItems < st.CoalesceBatches {
				t.Fatalf("batchers idle: %d batches / %d items", st.CoalesceBatches, st.CoalesceItems)
			}
			if st.CoalesceItems != n {
				t.Fatalf("coalesced %d items, want every one of the %d single-key ops", st.CoalesceItems, n)
			}
		})
	}
}

// TestSubscribeStreamsCommitsInOrder tails one shard's change feed over
// the wire while writing to it, then drains the server: the subscriber
// must see every mutation of its shard exactly once, in commit order,
// and then the clean end-of-feed.
func TestSubscribeStreamsCommitsInOrder(t *testing.T) {
	srv := startCoalesced(t, "tl2", 64, Config{Pipeline: 8})
	// Pick the shard of key 1 and collect every key landing there.
	shard := srv.store.ShardOf(1)
	var keys []uint64
	for k := stm.Word(1); len(keys) < 4; k++ {
		if srv.store.ShardOf(k) == shard {
			keys = append(keys, uint64(k))
		}
	}

	sub, err := txkvclient.DialSubscribe(srv.Addr().String(), shard, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	cl, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Two writes per key, then one delete: 3 events per key in a known
	// per-key order (cross-key interleaving is the server's to choose).
	for _, k := range keys {
		if _, err := cl.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Put(k, k*10+1); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	go srv.Drain()

	var events []txkvwire.FeedEvent
	for {
		batch, err := sub.Next()
		if errors.Is(err, txkvclient.ErrFeedClosed) {
			break
		}
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
		events = append(events, batch...)
	}
	if len(events) != 3*len(keys) {
		t.Fatalf("subscriber saw %d events, want %d (3 per key)", len(events), 3*len(keys))
	}
	perKey := make(map[uint64]int)
	for i, e := range events {
		if e.Seq != uint64(i)+1 {
			t.Fatalf("event %d has seq %d: lost, duplicated or reordered", i, e.Seq)
		}
		switch perKey[e.Key] {
		case 0:
			if e.Del || e.Val != e.Key*10 {
				t.Fatalf("key %d event 0: %+v, want first put", e.Key, e)
			}
		case 1:
			if e.Del || e.Val != e.Key*10+1 {
				t.Fatalf("key %d event 1: %+v, want second put", e.Key, e)
			}
		case 2:
			if !e.Del {
				t.Fatalf("key %d event 2: %+v, want delete", e.Key, e)
			}
		default:
			t.Fatalf("key %d saw a fourth event: %+v", e.Key, e)
		}
		perKey[e.Key]++
	}
}

// hookConn runs onWrite on every socket write, which fails once onWrite
// returns false.
type hookConn struct {
	net.Conn
	onWrite func(reply txkvwire.Reply) bool
}

func (h hookConn) Write(p []byte) (int, error) {
	payload, err := txkvwire.ReadFrame(bytes.NewReader(p), nil)
	if err != nil {
		return 0, err
	}
	reply, err := txkvwire.DecodeReply(payload)
	if err != nil || !h.onWrite(reply) {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func (h hookConn) Close() error { return nil }

// TestSubscribeFromNowStartsAtTheAck: a commit published the moment the
// subscribe ack is on the wire — before the stream first polls its feed —
// is streamed. A "from now" resolved at that first poll skipped it, so a
// client that committed after reading its ack could miss its own write.
func TestSubscribeFromNowStartsAtTheAck(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 64, Config{})
	f := srv.feeds[0]
	var frames []txkvwire.Reply
	nc := hookConn{onWrite: func(reply txkvwire.Reply) bool {
		if frames = append(frames, reply); len(frames) == 1 {
			f.Publish(f.Reserve(), []coalesce.Event{{Key: 3, Val: 77}})
		}
		return len(frames) < 2
	}}
	c := &conn{s: srv, nc: nc, bw: bufio.NewWriterSize(nc, 4<<10)}
	srv.wg.Add(1) // subscribe trades the request plane's slot for a subscriber's
	c.subscribe(txkvwire.Req{Op: txkvwire.OpSubscribe, Shard: 0}, 0)
	srv.subWg.Done()
	if len(frames) != 2 || len(frames[1].Events) != 1 || frames[1].Events[0].Key != 3 {
		t.Fatalf("frames %+v, want the ack and then the event for key 3", frames)
	}
}

// TestTTLExpiredInBatchShedsOnlyThatItem is the over-the-wire half of
// the PR 9 shed-accounting regression: with coalescing on, a request
// whose TTL expires while queued for its flush is shed alone with
// DeadlineExceeded; its batch-mates commit normally.
func TestTTLExpiredInBatchShedsOnlyThatItem(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 64, Config{Pipeline: 8})
	p, err := txkvclient.DialPipe(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	shard := srv.store.ShardOf(1)
	var other uint64
	for k := stm.Word(2); other == 0; k++ {
		if srv.store.ShardOf(k) == shard {
			other = uint64(k)
		}
	}
	// The shard is held until its 1µs TTL has certainly run out in queue.
	release := holdShard(t, srv, 1)
	reqs := []txkvwire.Req{
		{Op: txkvwire.OpPut, Key: 1, Val: 7, TTL: time.Microsecond},
		{Op: txkvwire.OpPut, Key: other, Val: 8},
		{Op: txkvwire.OpGet, Key: uint64(otherShardKey(srv, 1))}, // the marker
	}
	for i, req := range reqs {
		if err := p.Submit(req, i, true, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, srv, 2)
	release()

	for i, want := range []txkvwire.Code{txkvwire.CodeDeadlineExceeded, 0, 0} {
		tag, _, reply, err := p.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if tag != i || reply.Code != want {
			t.Fatalf("reply %d: tag=%v %+v, want code %v", i, tag, reply, want)
		}
	}

	cl, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if v, _, _ := cl.Get(1); v == 7 {
		t.Fatal("expired put reached the store")
	}
	if v, _, _ := cl.Get(other); v != 8 {
		t.Fatalf("live put lost: %d", v)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadlineExceeded != 1 {
		t.Fatalf("DeadlineExceeded counter %d, want 1", st.DeadlineExceeded)
	}
}
