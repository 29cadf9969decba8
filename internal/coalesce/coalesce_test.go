package coalesce_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/harness"
	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvwire"
)

// testRig is one engine + store + coalescer with a private metrics set.
type testRig struct {
	store *txkv.Store
	th    stm.Thread // spare thread for direct store access
	co    *coalesce.Coalescer
	m     *coalesce.Metrics
	feeds []*coalesce.Feed
}

// newRig builds a coalescer over a fresh store with one dedicated
// engine thread per shard, closed at cleanup. withFeeds attaches a
// per-shard change feed.
func newRig(t *testing.T, kind string, cfg coalesce.Config, withFeeds bool) *testRig {
	t.Helper()
	e := harness.EngineSpec{Kind: kind, Manager: "polka"}.New()
	th := e.NewThread(0)
	store := txkv.New(th, txkv.ConfigForKeys(256))
	threads := make([]stm.Thread, store.Shards())
	for i := range threads {
		threads[i] = e.NewThread(i + 1)
	}
	m := coalesce.NewMetrics(obs.NewRegistry())
	cfg.Metrics = m
	var feeds []*coalesce.Feed
	if withFeeds {
		feeds = make([]*coalesce.Feed, store.Shards())
		for i := range feeds {
			feeds[i] = coalesce.NewFeed(0, nil)
		}
	}
	co := coalesce.New(store, threads, nil, feeds, cfg)
	t.Cleanup(co.Close)
	return &testRig{store: store, th: th, co: co, m: m, feeds: feeds}
}

// sameShardKeys returns n distinct keys that hash to one shard.
func (r *testRig) sameShardKeys(n int) []stm.Word {
	want := r.store.ShardOf(1)
	keys := []stm.Word{1}
	for k := stm.Word(2); len(keys) < n; k++ {
		if r.store.ShardOf(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func (r *testRig) get(key stm.Word) (stm.Word, bool) {
	type kv struct {
		v  stm.Word
		ok bool
	}
	got := stm.AtomicRO(r.th, func(tx stm.TxRO) kv {
		v, ok := r.store.Get(tx, key)
		return kv{v, ok}
	})
	return got.v, got.ok
}

func (r *testRig) put(key, val stm.Word) {
	stm.AtomicVoid(r.th, func(tx stm.Tx) { r.store.Put(tx, key, val) })
}

// enqueue accepts the item or fails the test.
func (r *testRig) enqueue(t *testing.T, it *coalesce.Item) {
	t.Helper()
	if code, msg := r.co.Enqueue(it); code != 0 {
		t.Fatalf("enqueue refused: %v %q", code, msg)
	}
}

// await reads the item's result or fails after a generous timeout.
func await(t *testing.T, it *coalesce.Item) coalesce.Result {
	t.Helper()
	select {
	case res := <-it.Done():
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("item result never delivered")
		panic("unreachable")
	}
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

// hold parks the shard worker of each key (keys on distinct shards) inside
// a flush: the worker completes a one-item Get batch into a sink that
// blocks until release. Everything enqueued on a held shard meanwhile is
// what its worker takes next. The held Gets count as one executed item and
// one batch each. release is idempotent and also runs at cleanup, ahead of
// the rig's Close.
func (r *testRig) hold(t *testing.T, keys ...stm.Word) (release func()) {
	t.Helper()
	released := make(chan struct{})
	release = sync.OnceFunc(func() { close(released) })
	t.Cleanup(release)
	for _, k := range keys {
		h := holdSink{entered: make(chan struct{}), released: released}
		it := new(coalesce.Item)
		it.Init(coalesce.OpGet, k, 0, 0, time.Time{}, h)
		r.enqueue(t, it)
		select {
		case <-h.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("the worker of key %d's shard never flushed the hold", k)
		}
	}
	return release
}

// TestBatchSizeTrigger pins the size cap: 40 items queued behind a held
// worker flush as 32 + 8, each batch with the oldest items first.
func TestBatchSizeTrigger(t *testing.T) {
	const n = 40
	r := newRig(t, "swisstm", coalesce.Config{BatchSize: 32}, false)
	keys := r.sameShardKeys(n)
	release := r.hold(t, keys[0])
	items := make([]*coalesce.Item, n)
	for i, k := range keys {
		items[i] = coalesce.NewItem(coalesce.OpPut, k, stm.Word(100+i), 0, time.Time{})
		r.enqueue(t, items[i])
	}
	release()
	for i, it := range items {
		if res := await(t, it); res.Err != "" || !res.OK {
			t.Fatalf("item %d: %+v", i, res)
		}
	}
	h := r.m.BatchSize.Snapshot()
	if h.Count != 3 || h.Sum != 1+n || h.Buckets[obs.BucketIndex(1)] != 1 || h.Buckets[obs.BucketIndex(8)] != 1 {
		t.Fatalf("batch-size histogram count=%d sum=%d, want the hold's 1, then 32 and 8", h.Count, h.Sum)
	}
}

// TestLoneItemFlushesAtOnce: nothing holds a batch open. A lone item far
// below BatchSize, queued behind a busy worker, is flushed the moment the
// worker is free — no second park for company, no timer.
func TestLoneItemFlushesAtOnce(t *testing.T) {
	r := newRig(t, "swisstm", coalesce.Config{BatchSize: 1000}, false)
	release := r.hold(t, 7)
	woken := r.m.Wakeups.Load()
	it := coalesce.NewItem(coalesce.OpPut, 7, 42, 0, time.Time{})
	r.enqueue(t, it)
	release()
	if res := await(t, it); res.Err != "" || !res.OK {
		t.Fatalf("lone item: %+v", res)
	}
	if w, b := r.m.Wakeups.Load()-woken, r.m.Batches.Load(); w != 0 || b != 2 {
		t.Fatalf("%d wake-ups and %d batches after the hold, want none and the hold's and the item's", w, b)
	}
	if got, ok := r.get(7); !ok || got != 42 {
		t.Fatalf("store after flush: %d, %v", got, ok)
	}
}

// TestDrainRefusesPending pins the drain contract (DESIGN.md §14.3):
// items still queued when Close begins complete with Draining, and a
// later Enqueue is refused outright.
func TestDrainRefusesPending(t *testing.T) {
	r := newRig(t, "swisstm", coalesce.Config{}, false)
	keys := r.sameShardKeys(2)
	release := r.hold(t, keys[0])
	a := coalesce.NewItem(coalesce.OpPut, keys[0], 1, 0, time.Time{})
	b := coalesce.NewItem(coalesce.OpGet, keys[1], 0, 0, time.Time{})
	r.enqueue(t, a)
	r.enqueue(t, b)
	closed := make(chan struct{})
	go func() {
		r.co.Close()
		close(closed)
	}()
	// Close has marked the held shard once it refuses: only then may its
	// worker look at the queue again. A probe accepted before that is
	// pending with a and b, and refused with them.
	probes := 0
	for {
		code, _ := r.co.Enqueue(coalesce.NewItem(coalesce.OpGet, keys[1], 0, 0, time.Time{}))
		if code == txkvwire.CodeDraining {
			break
		}
		if code == 0 {
			probes++
		}
	}
	release()
	<-closed
	for _, it := range []*coalesce.Item{a, b} {
		res := await(t, it)
		if res.Code != txkvwire.CodeDraining || !res.Shed {
			t.Fatalf("pending item at shutdown: %+v, want shed Draining", res)
		}
	}
	if got := r.m.Drained.Load(); got != uint64(2+probes) {
		t.Fatalf("drained counter %d, want %d", got, 2+probes)
	}
	if _, ok := r.get(keys[0]); ok {
		t.Fatal("drained put reached the store")
	}
}

// TestPerItemIsolation pins per-item error isolation inside one batch:
// a CAS that misses fails that item only, its neighbours commit.
func TestPerItemIsolation(t *testing.T) {
	r := newRig(t, "swisstm", coalesce.Config{BatchSize: 3}, false)
	keys := r.sameShardKeys(2)
	r.put(keys[1], 5)

	release := r.hold(t, keys[0])
	miss := coalesce.NewItem(coalesce.OpCAS, keys[1], 7, 999, time.Time{}) // expects 999, finds 5
	put := coalesce.NewItem(coalesce.OpPut, keys[0], 42, 0, time.Time{})
	hit := coalesce.NewItem(coalesce.OpCAS, keys[1], 9, 5, time.Time{}) // expects 5: swaps
	for _, it := range []*coalesce.Item{miss, put, hit} {
		r.enqueue(t, it)
	}
	release()
	if res := await(t, miss); res.Err != "" || res.OK {
		t.Fatalf("missing CAS: %+v, want OK=false without error", res)
	}
	if res := await(t, put); res.Err != "" || !res.OK {
		t.Fatalf("put next to missing CAS: %+v", res)
	}
	if res := await(t, hit); res.Err != "" || !res.OK {
		t.Fatalf("hitting CAS: %+v", res)
	}
	if got := r.m.Batches.Load(); got != 2 {
		t.Fatalf("ran %d batches, want the hold's and the whole trio in 1", got)
	}
	if v, _ := r.get(keys[0]); v != 42 {
		t.Fatalf("put lost: key %d = %d", keys[0], v)
	}
	if v, _ := r.get(keys[1]); v != 9 {
		t.Fatalf("CAS result: key %d = %d, want 9", keys[1], v)
	}
}

// TestPanickingItemIsRefusedAlone pins the panic rule: a body the store
// panics out of (a Put into a full shard) applies nothing, its batch is
// re-run one item at a time, and only the offender is refused — with its
// tickets given back, so the shard's feed stays contiguous and the next
// batch publishes behind it.
func TestPanickingItemIsRefusedAlone(t *testing.T) {
	r := newRig(t, "swisstm", coalesce.Config{BatchSize: 3}, true)
	const slots = 64 // per shard, at newRig's ConfigForKeys(256)
	keys := r.sameShardKeys(slots + 1)
	for _, k := range keys[:slots] {
		r.put(k, 1)
	}
	feed := r.feeds[r.store.ShardOf(keys[0])]

	release := r.hold(t, keys[0])
	before := coalesce.NewItem(coalesce.OpPut, keys[0], 42, 0, time.Time{})
	offender := coalesce.NewItem(coalesce.OpPut, keys[slots], 7, 0, time.Time{})
	after := coalesce.NewItem(coalesce.OpGet, keys[0], 0, 0, time.Time{})
	for _, it := range []*coalesce.Item{before, offender, after} {
		r.enqueue(t, it)
	}
	release()
	if res := await(t, before); res.Err != "" || res.OK {
		t.Fatalf("put of a present key beside the offender: %+v", res)
	}
	if res := await(t, offender); res.Code != txkvwire.CodeInternal || res.Shed {
		t.Fatalf("put into a full shard: %+v, want an Internal error", res)
	}
	if res := await(t, after); res.Err != "" || res.Val != 42 {
		t.Fatalf("get behind the offender: %+v, want the value its neighbour put", res)
	}
	if end := feed.End(); end != 2 {
		t.Fatalf("feed ends at seq %d, want 2: exactly the neighbour's put", end)
	}

	next := make([]*coalesce.Item, 3)
	for i := range next {
		next[i] = coalesce.NewItem(coalesce.OpPut, keys[i], 9, 0, time.Time{})
		r.enqueue(t, next[i])
	}
	for _, it := range next {
		if res := await(t, it); res.Err != "" {
			t.Fatalf("put after the panic: %+v", res)
		}
	}
	if end := feed.End(); end != 5 {
		t.Fatalf("feed ends at seq %d after the next batch, want 5", end)
	}
}

// TestTTLExpiryShedsOnlyExpiredItem is the PR 9 shed-accounting
// regression under coalescing: an item whose deadline passed while
// queued is shed alone with DeadlineExceeded and an exact queue-phase
// time; the rest of its batch executes and commits.
func TestTTLExpiryShedsOnlyExpiredItem(t *testing.T) {
	r := newRig(t, "swisstm", coalesce.Config{}, false)
	keys := r.sameShardKeys(2)
	release := r.hold(t, keys[0])
	expired := coalesce.NewItem(coalesce.OpPut, keys[0], 1, 0, time.Now().Add(time.Millisecond))
	fresh := coalesce.NewItem(coalesce.OpPut, keys[1], 2, 0, time.Now().Add(time.Hour))
	r.enqueue(t, expired)
	r.enqueue(t, fresh)
	time.Sleep(2 * time.Millisecond) // the first deadline passes while the worker is held
	release()

	res := await(t, expired)
	if res.Code != txkvwire.CodeDeadlineExceeded || !res.Shed {
		t.Fatalf("expired item: %+v, want shed DeadlineExceeded", res)
	}
	if res.QueueNs < uint64(2*time.Millisecond) {
		t.Fatalf("expired item reported %v queued; its queue phase is its time-to-flush", time.Duration(res.QueueNs))
	}
	if res := await(t, fresh); res.Err != "" || !res.OK {
		t.Fatalf("fresh batch-mate: %+v", res)
	}
	if _, ok := r.get(keys[0]); ok {
		t.Fatal("expired put reached the store")
	}
	if v, _ := r.get(keys[1]); v != 2 {
		t.Fatalf("fresh put lost: %d", v)
	}
	if r.m.Expired.Load() != 1 {
		t.Fatalf("expired counter %d, want 1", r.m.Expired.Load())
	}
	if r.m.Items.Load() != 2 {
		t.Fatalf("items counter %d, want only the hold and the fresh item", r.m.Items.Load())
	}
}

// TestQueueFullShedsOverloaded pins the admission bound: the shard
// queue refuses beyond QueueCap with Overloaded while a flush is not
// draining it.
func TestQueueFullShedsOverloaded(t *testing.T) {
	r := newRig(t, "swisstm", coalesce.Config{QueueCap: 4}, false)
	keys := r.sameShardKeys(6)
	r.hold(t, keys[0])
	accepted := 0
	sawOverload := false
	for _, k := range keys {
		code, _ := r.co.Enqueue(coalesce.NewItem(coalesce.OpGet, k, 0, 0, time.Time{}))
		switch code {
		case 0:
			accepted++
		case txkvwire.CodeOverloaded:
			sawOverload = true
		default:
			t.Fatalf("unexpected refusal code %v", code)
		}
	}
	// The cap counts every pending item; the held flush took its own
	// out of the queue: exactly 4 fit.
	if !sawOverload || accepted != 4 {
		t.Fatalf("accepted %d of 6 with QueueCap 4 (overload seen: %v)", accepted, sawOverload)
	}
}

// TestWorkerWakesPerBatchNotPerItem pins the hand-off grain: a full batch
// enqueued back to back while its worker is busy costs no wake-up at all —
// the worker finds it when the flush ends. (That a worker wakes at most
// once per batch is TestNoLostWakeups' bound.)
func TestWorkerWakesPerBatchNotPerItem(t *testing.T) {
	const n = 32
	r := newRig(t, "swisstm", coalesce.Config{BatchSize: n}, false)
	keys := r.sameShardKeys(n)
	release := r.hold(t, keys[0])
	woken := r.m.Wakeups.Load()
	items := make([]*coalesce.Item, n)
	for i, k := range keys {
		items[i] = coalesce.NewItem(coalesce.OpPut, k, stm.Word(i), 0, time.Time{})
		r.enqueue(t, items[i])
	}
	release()
	for i, it := range items {
		if res := await(t, it); res.Err != "" {
			t.Fatalf("item %d: %+v", i, res)
		}
	}
	if got := r.m.Batches.Load(); got != 2 {
		t.Fatalf("flushed %d batches, want the hold's and 1", got)
	}
	if got := r.m.Wakeups.Load() - woken; got != 0 {
		t.Fatalf("worker woke %d times for a batch queued behind a flush, want none", got)
	}
}

// TestCloseWakesIdleWorker: Close returns with every worker parked on an
// empty queue (a worker busy in a flush is TestDrainRefusesPending's),
// and the closed queues refuse.
func TestCloseWakesIdleWorker(t *testing.T) {
	r := newRig(t, "swisstm", coalesce.Config{}, false)
	it := coalesce.NewItem(coalesce.OpGet, 1, 0, 0, time.Time{})
	r.enqueue(t, it)
	if res := await(t, it); res.Err != "" {
		t.Fatalf("item before Close: %+v", res)
	}
	closed := make(chan struct{})
	go func() {
		r.co.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on parked workers")
	}
	if code, _ := r.co.Enqueue(coalesce.NewItem(coalesce.OpGet, 1, 0, 0, time.Time{})); code != txkvwire.CodeDraining {
		t.Fatalf("enqueue after Close: code %v, want Draining", code)
	}
}

// countSink is a caller-owned item in the server's style: embedded Item,
// re-armed after every completion, completions counted.
type countSink struct {
	coalesce.Item
	completions atomic.Int64
	done        chan coalesce.Result // capacity 1
}

func (s *countSink) Complete(r coalesce.Result) {
	s.completions.Add(1)
	s.done <- r
}

// TestNoLostWakeups hammers the race the wake token exists for: four
// producers with one item in flight each keep a BatchSize 2 queue
// emptying, so the worker parks and is woken over and over just as items
// arrive. A lost token hangs the queue (the producers wait on their
// items); a stale one shows up as more wake-ups than batches (plus
// Close's). Every item completes exactly once, through either kind of
// sink, and Close returns.
func TestNoLostWakeups(t *testing.T) {
	const (
		producers = 4
		perProd   = 50_000 // 200 000 items in all
	)
	for _, kind := range []string{"chan", "sink"} {
		t.Run(kind, func(t *testing.T) {
			r := newRig(t, "swisstm", coalesce.Config{BatchSize: 2}, false)
			keys := r.sameShardKeys(producers)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					own := &countSink{done: make(chan coalesce.Result, 1)}
					for i := 0; i < perProd; i++ {
						var res coalesce.Result
						if kind == "chan" {
							it := coalesce.NewItem(coalesce.OpPut, keys[p], stm.Word(i), 0, time.Time{})
							if code, msg := r.co.Enqueue(it); code != 0 {
								t.Errorf("enqueue: %v %q", code, msg)
								return
							}
							res = <-it.Done()
						} else {
							own.Init(coalesce.OpPut, keys[p], stm.Word(i), 0, time.Time{}, own)
							if code, msg := r.co.Enqueue(&own.Item); code != 0 {
								t.Errorf("enqueue: %v %q", code, msg)
								return
							}
							res = <-own.done
							if got := own.completions.Load(); got != int64(i+1) {
								t.Errorf("producer %d: %d completions after %d items", p, got, i+1)
								return
							}
						}
						if res.Err != "" {
							t.Errorf("item: %+v", res)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			r.co.Close()
			if got := r.m.Items.Load(); got != producers*perProd {
				t.Fatalf("executed %d items, want %d", got, producers*perProd)
			}
			t.Logf("%d items, %d batches, %d wake-ups", r.m.Items.Load(), r.m.Batches.Load(), r.m.Wakeups.Load())
			if w, b := r.m.Wakeups.Load(), r.m.Batches.Load(); w > b+1 {
				t.Fatalf("%d wake-ups for %d batches: more than one per batch, a stale token woke the worker", w, b)
			}
		})
	}
}

// TestCrossEngineFeedReplayMatchesStore drives a mixed concurrent load
// through the coalescer on every engine and checks the headline
// properties end to end: per-shard feeds replay to exactly the store's
// final state with contiguous sequences, and the engine burned far
// fewer commits than items (the whole point of coalescing).
func TestCrossEngineFeedReplayMatchesStore(t *testing.T) {
	for _, kind := range []string{"swisstm", "tl2", "tinystm", "rstm"} {
		t.Run(kind, func(t *testing.T) {
			r := newRig(t, kind, coalesce.Config{BatchSize: 64}, true)
			const (
				producers = 4
				perProd   = 200
				keySpace  = 64
			)
			// Every worker is held while the producers enqueue their whole
			// streams, so the batches fill; then they race the flushes.
			var shardKeys []stm.Word
			seen := make(map[int]bool)
			for k := stm.Word(1); len(shardKeys) < r.store.Shards(); k++ {
				if sh := r.store.ShardOf(k); !seen[sh] {
					seen[sh] = true
					shardKeys = append(shardKeys, k)
				}
			}
			release := r.hold(t, shardKeys...)
			var enqueued, wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				enqueued.Add(1)
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					items := make([]*coalesce.Item, 0, perProd)
					for i := 0; i < perProd; i++ {
						k := stm.Word(1 + (p*31+i*7)%keySpace)
						var it *coalesce.Item
						switch i % 4 {
						case 0:
							it = coalesce.NewItem(coalesce.OpPut, k, stm.Word(p<<16|i), 0, time.Time{})
						case 1:
							it = coalesce.NewItem(coalesce.OpGet, k, 0, 0, time.Time{})
						case 2:
							it = coalesce.NewItem(coalesce.OpDelete, k, 0, 0, time.Time{})
						default:
							it = coalesce.NewItem(coalesce.OpCAS, k, stm.Word(p<<20|i), stm.Word(i), time.Time{})
						}
						if code, msg := r.co.Enqueue(it); code != 0 {
							t.Errorf("enqueue: %v %q", code, msg)
							break
						}
						items = append(items, it)
					}
					enqueued.Done()
					for _, it := range items {
						if res := <-it.Done(); res.Err != "" {
							t.Errorf("item error: %+v", res)
							return
						}
					}
				}(p)
			}
			enqueued.Wait()
			release()
			wg.Wait()
			r.co.Close()
			for _, f := range r.feeds {
				f.Close() // no more flushes: let replay observe "done"
			}
			if t.Failed() {
				return
			}

			items := r.m.Items.Load() - uint64(len(shardKeys)) // less the holds
			commits := r.co.Stats().Commits + r.co.Stats().ROCommits - uint64(len(shardKeys))
			if items != producers*perProd {
				t.Fatalf("executed %d items, want %d", items, producers*perProd)
			}
			if commits*2 > items {
				t.Fatalf("coalescing never amortized: %d commits for %d items", commits, items)
			}

			// Replay every shard's feed over an empty store image.
			state := make(map[uint64]uint64)
			for sh, f := range r.feeds {
				var cursor uint64 = 1
				dst := make([]coalesce.Event, 0, 128)
				for {
					batch, next, _, done, err := f.Next(cursor, dst, 128)
					if err != nil {
						t.Fatalf("shard %d: %v", sh, err)
					}
					if done {
						break
					}
					if len(batch) == 0 {
						t.Fatalf("shard %d: feed neither ready nor done after close", sh)
					}
					for _, e := range batch {
						if e.Seq != cursor {
							t.Fatalf("shard %d: seq %d at cursor %d", sh, e.Seq, cursor)
						}
						cursor++
						if e.Del {
							delete(state, e.Key)
						} else {
							state[e.Key] = e.Val
						}
					}
					cursor = next
				}
			}
			final := make(map[uint64]uint64)
			for k := stm.Word(1); k <= keySpace; k++ {
				if v, ok := r.get(k); ok {
					final[uint64(k)] = uint64(v)
				}
			}
			if len(state) != len(final) {
				t.Fatalf("replay has %d keys, store has %d", len(state), len(final))
			}
			for k, v := range final {
				if rv, ok := state[k]; !ok || rv != v {
					t.Fatalf("replay diverges at key %d: replay=(%d,%v) store=%d", k, rv, ok, v)
				}
			}
		})
	}
}
