// Package coalesce batches single-key txkv operations into per-shard
// group commits (DESIGN.md §14).
//
// Each shard owns a queue and a dedicated engine thread: the queue
// absorbs items routed by shard affinity and its worker flushes when
// either batchSize items are pending or maxWait has elapsed since it
// picked up the first item of the batch. The worker is woken per batch,
// not per item. A flush executes every item of the batch
// inside ONE v2 engine transaction on the shard's worker thread and —
// when anything mutated — publishes ONE commit-log frame and ONE
// change-feed publish for the whole batch, amortizing the engine
// commit, the WAL ticket/fsync path, and the feed sequencing across
// the batch.
//
// Per-item semantics: every item completes into its own Sink with its
// individual result. A CAS that misses or a delete of an
// absent key fails that item only — the store's single-key operations
// are total (they report their outcome instead of aborting), so the
// batch transaction always commits and items never observe each
// other's failures. An item whose TTL expires while queued is shed
// alone with DeadlineExceeded; the rest of its batch executes. Items
// pending when the coalescer shuts down complete with Draining.
package coalesce

import (
	"sync"
	"time"

	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvwire"
	"swisstm/internal/wal"
)

// Op is the single-key operation class a batcher accepts.
type Op uint8

const (
	OpGet Op = iota + 1
	OpPut
	OpDelete
	OpCAS
)

// Result is one item's individual outcome. Err, when non-empty, is a
// typed failure (Code classifies it); Shed additionally marks items
// refused without executing (TTL expiry, drain). The phase fields
// carry the item's share of its batch: QueueNs is the exact
// enqueue→flush wait, the rest divide the batch's transaction, commit
// and log-publish time by the number of items executed.
type Result struct {
	Val   stm.Word
	Found bool // Get: key present
	OK    bool // Put: inserted; Delete: existed; CAS: swapped
	Err   string
	Code  txkvwire.Code
	Shed  bool

	QueueNs  uint64
	TxnNs    uint64
	CommitNs uint64
	WalNs    uint64
}

// Sink receives the outcome of one accepted item. Complete is called
// exactly once, on the item's shard worker, and must not block: the
// worker has the rest of the batch to complete and the next to gather.
type Sink interface {
	Complete(Result)
}

// Item is one queued operation. A caller that owns its items' storage
// (the server embeds them in its per-connection reply ring) arms one with
// Init and receives the outcome through its Sink; NewItem and Done are
// the channel-backed form of the same thing.
type Item struct {
	Op       Op
	Key      stm.Word
	Val      stm.Word // Put value; CAS new value
	Old      stm.Word // CAS expected value
	Deadline time.Time

	enq  time.Time
	sink Sink
}

// Init arms it for one trip through the coalescer. A zero deadline means
// no TTL. The item may be re-armed once its sink has been completed (or
// Enqueue refused it).
func (it *Item) Init(op Op, key, val, old stm.Word, deadline time.Time, sink Sink) {
	*it = Item{Op: op, Key: key, Val: val, Old: old, Deadline: deadline, sink: sink}
}

// complete is the one way an accepted item ends.
func (it *Item) complete(r Result) { it.sink.Complete(r) }

// chanSink is NewItem's sink: one buffered slot, so Complete never blocks.
type chanSink chan Result

func (c chanSink) Complete(r Result) { c <- r }

// NewItem builds an item whose result is read from Done.
func NewItem(op Op, key, val, old stm.Word, deadline time.Time) *Item {
	it := new(Item)
	it.Init(op, key, val, old, deadline, make(chanSink, 1))
	return it
}

// Done delivers the result of an item built by NewItem, once Enqueue
// accepted it.
func (it *Item) Done() <-chan Result { return it.sink.(chanSink) }

// Metrics is the coalescer's observability surface; NewMetrics wires
// it into a Registry under the txkv_coalesce_* names.
type Metrics struct {
	Batches   *obs.Counter    // flushes executed
	Items     *obs.Counter    // items executed (excludes shed)
	Expired   *obs.Counter    // items shed by TTL expiry inside a batch
	Drained   *obs.Counter    // items completed with Draining at shutdown
	Wakeups   *obs.Counter    // times a shard worker resumed from a park
	BatchSize *obs.AtomicHist // items per executed flush
	FlushNs   *obs.AtomicHist // flush duration (txn + commit + log publish)
}

// NewMetrics registers the coalescer metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Batches:   reg.Counter("txkv_coalesce_batches_total"),
		Items:     reg.Counter("txkv_coalesce_items_total"),
		Expired:   reg.Counter("txkv_coalesce_expired_total"),
		Drained:   reg.Counter("txkv_coalesce_drained_total"),
		Wakeups:   reg.Counter("txkv_coalesce_worker_wakeups_total"),
		BatchSize: reg.Histogram("txkv_coalesce_batch_size"),
		FlushNs:   reg.Histogram("txkv_coalesce_flush_ns"),
	}
}

// Config tunes the batchers.
type Config struct {
	// BatchSize flushes a batch once this many items are pending
	// (default 32).
	BatchSize int
	// MaxWait flushes an incomplete batch this long after the worker
	// picked up its first item (default 200µs) — the latency bound a
	// lone item pays for company.
	MaxWait time.Duration
	// QueueCap bounds each shard's pending items — every accepted item
	// not yet handed to a flush, the batch being gathered included; an
	// enqueue beyond it is shed with Overloaded (default
	// max(4×BatchSize, 256)).
	QueueCap int
	// Metrics defaults to a private unregistered set.
	Metrics *Metrics
	// Conflicts, when set, receives the engine aborts each flush
	// burned, attributed to its shard.
	Conflicts func(shard int, aborts uint64)
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 200 * time.Microsecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.BatchSize
		if c.QueueCap < 256 {
			c.QueueCap = 256
		}
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.NewRegistry())
	}
	return c
}

// Coalescer routes single-key items to per-shard batchers. One
// dedicated engine thread and one worker goroutine per shard; items
// for the same shard execute in enqueue order.
type Coalescer struct {
	store *txkv.Store
	log   *wal.Writer // nil = no commit log
	feeds []*Feed     // nil = no change feed; else one per shard
	cfg   Config
	qs    []*shardQ
	wg    sync.WaitGroup
}

// shardQ is one shard's pending items: a FIFO under a mutex, and the
// threshold its worker is parked on. The worker parks by publishing the
// queue length it waits for (want: 1 for anything at all, BatchSize
// while it gathers) and receiving the wake token. Whoever clears want
// owns the token: an enqueuer whose append reaches it, Close, or the
// worker itself when its MaxWait timer fires first. So at most one token
// is ever outstanding, and the sender never blocks.
type shardQ struct {
	mu      sync.Mutex
	pending []*Item
	want    int // > 0: the worker is parked until len(pending) reaches it
	closed  bool
	wake    chan struct{} // the wake token; capacity 1

	// statsMu guards a mirror of the worker thread's cumulative engine
	// stats, refreshed after every flush: the thread itself is only
	// safe to read between its transactions, and only its worker may
	// touch it. Stats() lags by at most one in-progress flush.
	statsMu sync.Mutex
	stats   stm.Stats
}

// New starts one batcher per store shard. threads must hold exactly
// store.Shards() engine threads, each used by its shard's worker
// only. log (nil = none) receives one redo frame per mutating flush;
// feeds (nil = none, else one per shard) receive the flush's committed
// mutations.
func New(store *txkv.Store, threads []stm.Thread, log *wal.Writer, feeds []*Feed, cfg Config) *Coalescer {
	if len(threads) != store.Shards() {
		panic("coalesce: need exactly one engine thread per shard")
	}
	if feeds != nil && len(feeds) != store.Shards() {
		panic("coalesce: need exactly one feed per shard")
	}
	c := &Coalescer{store: store, log: log, feeds: feeds, cfg: cfg.withDefaults()}
	c.qs = make([]*shardQ, store.Shards())
	for i := range c.qs {
		c.qs[i] = &shardQ{wake: make(chan struct{}, 1)}
		c.wg.Add(1)
		go c.worker(i, threads[i])
	}
	return c
}

// Enqueue is EnqueueAt for a caller with no clock reading of its own.
func (c *Coalescer) Enqueue(it *Item) (code txkvwire.Code, errMsg string) {
	return c.EnqueueAt(it, time.Now())
}

// EnqueueAt routes it to its shard's queue; its queue phase starts at
// now, the caller's latest clock reading. An empty code means the item
// was accepted and its sink will be completed; otherwise the item was
// refused immediately (queue full → Overloaded, shutting down →
// Draining) and its sink never is. EnqueueAt never blocks.
func (c *Coalescer) EnqueueAt(it *Item, now time.Time) (code txkvwire.Code, errMsg string) {
	sh := c.qs[c.store.ShardOf(it.Key)]
	it.enq = now
	sh.mu.Lock()
	switch {
	case sh.closed:
		sh.mu.Unlock()
		return txkvwire.CodeDraining, "server draining"
	case len(sh.pending) >= c.cfg.QueueCap:
		sh.mu.Unlock()
		return txkvwire.CodeOverloaded, "coalesce queue full"
	}
	sh.pending = append(sh.pending, it)
	wake := sh.want > 0 && len(sh.pending) >= sh.want
	if wake {
		sh.want = 0
	}
	sh.mu.Unlock()
	if wake {
		sh.wake <- struct{}{}
	}
	return 0, ""
}

// Stats sums the engine counters of every shard worker's thread (the
// commits/aborts the flush transactions burned). Each worker's mirror
// refreshes after its flushes, so the sum lags by at most the flushes
// in progress; after Close it is exact.
func (c *Coalescer) Stats() stm.Stats {
	var sum stm.Stats
	for _, sh := range c.qs {
		sh.statsMu.Lock()
		sum.Add(sh.stats)
		sh.statsMu.Unlock()
	}
	return sum
}

// Close shuts every batcher down and waits for the workers. Items
// still pending complete with Draining; a flush already in progress
// completes normally.
func (c *Coalescer) Close() {
	for _, sh := range c.qs {
		sh.mu.Lock()
		sh.closed = true
		wake := sh.want > 0 // a closed queue's worker never parks again
		sh.want = 0
		sh.mu.Unlock()
		if wake {
			sh.wake <- struct{}{}
		}
	}
	c.wg.Wait()
}

// worker owns one shard: park until the queue is non-empty, park once
// more until it holds BatchSize items or MaxWait has passed, take up to
// BatchSize items under one lock, flush, repeat — at most two wake-ups
// per batch, however many items it holds.
func (c *Coalescer) worker(shard int, th stm.Thread) {
	defer c.wg.Done()
	sh := c.qs[shard]
	fl := &flusher{c: c, shard: shard, th: th}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	batch := make([]*Item, 0, c.cfg.BatchSize)
	sh.mu.Lock()
	for {
		for len(sh.pending) == 0 && !sh.closed {
			sh.want = 1
			sh.mu.Unlock()
			<-sh.wake
			c.cfg.Metrics.Wakeups.Inc()
			sh.mu.Lock()
		}
		// The batch's first item is picked up here, and MaxWait runs
		// from here.
		if len(sh.pending) < c.cfg.BatchSize && !sh.closed {
			sh.want = c.cfg.BatchSize
			sh.mu.Unlock()
			timer.Reset(c.cfg.MaxWait)
			select {
			case <-sh.wake:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				sh.mu.Lock()
				mine := sh.want > 0
				sh.want = 0
				sh.mu.Unlock()
				if !mine {
					// The threshold was cleared as the timer fired: that
					// token is in flight, and left there it would cut the
					// next park short.
					<-sh.wake
				}
			}
			c.cfg.Metrics.Wakeups.Inc()
			sh.mu.Lock()
		}
		// Anything still pending when shutdown began is refused, not
		// executed: the drain contract (DESIGN.md §14.3).
		if sh.closed {
			rest := sh.pending
			sh.pending = nil
			sh.mu.Unlock()
			c.refuse(rest)
			return
		}
		n := min(len(sh.pending), c.cfg.BatchSize)
		batch = append(batch[:0], sh.pending[:n]...)
		rest := copy(sh.pending, sh.pending[n:])
		clear(sh.pending[rest:]) // completed items are their owners' to reuse
		sh.pending = sh.pending[:rest]
		sh.mu.Unlock()
		fl.flush(batch)
		sh.mu.Lock()
	}
}

func (c *Coalescer) refuse(batch []*Item) {
	for _, it := range batch {
		c.cfg.Metrics.Drained.Inc()
		it.complete(Result{Err: "server draining", Code: txkvwire.CodeDraining, Shed: true,
			QueueNs: uint64(time.Since(it.enq))})
	}
}

// flusher is one worker's reusable flush state.
type flusher struct {
	c     *Coalescer
	shard int
	th    stm.Thread

	live   []*Item
	res    []Result
	redo   []txkv.RedoEntry
	events []Event
	buf    []byte
}

// flush executes one batch as one engine transaction, then publishes
// its redo frame and feed events.
func (fl *flusher) flush(batch []*Item) {
	c, m := fl.c, fl.c.cfg.Metrics
	start := time.Now()

	// TTL expiry inside a batch sheds only the expired item: its
	// deadline passed while it waited for the flush, so its queue
	// phase is exactly the time-to-flush.
	fl.live = fl.live[:0]
	mutating := false
	for _, it := range batch {
		if !it.Deadline.IsZero() && start.After(it.Deadline) {
			m.Expired.Inc()
			it.complete(Result{Err: "deadline exceeded while queued for flush",
				Code: txkvwire.CodeDeadlineExceeded, Shed: true,
				QueueNs: uint64(start.Sub(it.enq))})
			continue
		}
		if it.Op != OpGet {
			mutating = true
		}
		fl.live = append(fl.live, it)
	}
	live := fl.live
	if len(live) == 0 {
		return
	}
	if cap(fl.res) < len(live) {
		fl.res = make([]Result, len(live))
	}
	res := fl.res[:len(live)]
	for i := range res {
		res[i] = Result{}
	}

	var (
		logTk    wal.Ticket
		logLive  bool
		feedTk   uint64
		feedLive bool
		bodyNs   uint64
		feed     *Feed
	)
	if c.feeds != nil {
		feed = c.feeds[fl.shard]
	}
	aborts0 := fl.th.Stats().Aborts
	if !mutating {
		stm.AtomicRO(fl.th, func(tx stm.TxRO) int {
			bt := time.Now()
			for i, it := range live {
				res[i].Val, res[i].Found = c.store.Get(tx, it.Key)
			}
			bodyNs = uint64(time.Since(bt))
			return 0
		})
	} else {
		stm.Atomic(fl.th, func(tx stm.Tx) int {
			bt := time.Now()
			// Retried attempt: release the failed attempt's tickets and
			// rebuild its outcome from scratch.
			if logLive {
				c.log.Abandon(logTk)
				logLive = false
			}
			if feedLive {
				feed.Abandon(feedTk)
				feedLive = false
			}
			fl.redo = fl.redo[:0]
			fl.events = fl.events[:0]
			for i, it := range live {
				switch it.Op {
				case OpGet:
					res[i].Val, res[i].Found = c.store.Get(tx, it.Key)
				case OpPut:
					res[i].OK = c.store.Put(tx, it.Key, it.Val)
					fl.redo = append(fl.redo, txkv.RedoEntry{Op: txkv.RedoPut, Key: it.Key, Val: it.Val})
					fl.events = append(fl.events, Event{Key: uint64(it.Key), Val: uint64(it.Val)})
				case OpDelete:
					if res[i].OK = c.store.Delete(tx, it.Key); res[i].OK {
						fl.redo = append(fl.redo, txkv.RedoEntry{Op: txkv.RedoDelete, Key: it.Key})
						fl.events = append(fl.events, Event{Del: true, Key: uint64(it.Key)})
					}
				case OpCAS:
					if res[i].OK = c.store.CAS(tx, it.Key, it.Old, it.Val); res[i].OK {
						fl.redo = append(fl.redo, txkv.RedoEntry{Op: txkv.RedoPut, Key: it.Key, Val: it.Val})
						fl.events = append(fl.events, Event{Key: uint64(it.Key), Val: uint64(it.Val)})
					}
				}
			}
			// Tickets last (DESIGN.md §12): every read deciding the
			// batch's outcome precedes the reservations, so ticket order
			// agrees with commit order.
			if len(fl.redo) > 0 && c.log != nil {
				logTk = c.log.Reserve()
				logLive = true
			}
			if len(fl.events) > 0 && feed != nil {
				feedTk = feed.Reserve()
				feedLive = true
			}
			bodyNs = uint64(time.Since(bt))
			return 0
		})
	}
	end := time.Now() // commit is the flush from start, where the queue phases end, less the final body
	txnNs := bodyNs
	commitNs := uint64(end.Sub(start)) - bodyNs
	cur := fl.th.Stats()
	sh := c.qs[fl.shard]
	sh.statsMu.Lock()
	sh.stats = cur
	sh.statsMu.Unlock()
	if c.cfg.Conflicts != nil {
		if d := cur.Aborts - aborts0; d > 0 {
			c.cfg.Conflicts(fl.shard, d)
		}
	}

	// The feed reflects the in-memory commit, which already happened;
	// publish before the durability wait so tailers are not gated on
	// fsync latency.
	if feedLive {
		feed.Publish(feedTk, fl.events)
	}
	var walNs uint64
	var walErr error
	if logLive {
		var buf []byte
		buf, walErr = txkv.AppendRedo(fl.buf[:0], fl.redo)
		fl.buf = buf[:0]
		wt := time.Now()
		if walErr == nil {
			walErr = c.log.Publish(logTk, buf)
		} else {
			c.log.Abandon(logTk)
		}
		end = time.Now()
		walNs = uint64(end.Sub(wt))
	}

	m.Batches.Inc()
	m.Items.Add(uint64(len(live)))
	m.BatchSize.Record(uint64(len(live)))
	m.FlushNs.Record(uint64(end.Sub(start)))

	n := uint64(len(live))
	for i, it := range live {
		r := res[i]
		if walErr != nil && mutated(it, r) {
			// The batch's frame never became durable: refuse the ack for
			// every item that contributed to it.
			r = Result{Err: "wal: " + walErr.Error(), Code: txkvwire.CodeInternal}
		}
		r.QueueNs = uint64(start.Sub(it.enq))
		r.TxnNs = txnNs / n
		r.CommitNs = commitNs / n
		r.WalNs = walNs / n
		it.complete(r)
	}
}

// mutated reports whether the item contributed an entry to its batch's
// redo frame.
func mutated(it *Item, r Result) bool {
	switch it.Op {
	case OpPut:
		return true
	case OpDelete, OpCAS:
		return r.OK
	}
	return false
}
