// Package coalesce batches single-key txkv operations into per-shard
// group commits (DESIGN.md §14).
//
// Each shard owns a queue and a dedicated engine thread: the queue
// absorbs items routed by shard affinity, and its worker parks only when
// the queue is empty. Whenever it runs it takes up to BatchSize of what
// is pending and flushes it, so a batch is whatever queued while the
// worker was flushing the last one or waking up — a lone item on an idle
// shard flushes at once, and no timer holds a batch open. The worker is
// woken at most once per batch, never per item. A flush executes every
// item of the batch inside ONE v2 engine transaction on the shard's
// worker thread and — when anything mutated — publishes ONE commit-log
// frame and ONE change-feed publish for the whole batch, amortizing the
// engine commit, the WAL ticket/fsync path, and the feed sequencing
// across the batch.
//
// Per-item semantics: every item completes into its own Sink with its
// individual result. A CAS that misses or a delete of an
// absent key fails that item only — the store's single-key operations
// are total (they report their outcome instead of aborting), so the
// batch transaction always commits and items never observe each
// other's failures. An item whose TTL expires while queued is shed
// alone with DeadlineExceeded; the rest of its batch executes. Items
// pending when the coalescer shuts down complete with Draining.
//
// The panic rule: the one way a store operation does abort is a panic
// out of the body (a Put into a full shard). The batch has then applied
// nothing; it is re-run one item at a time, so only the offender is
// refused, with Internal, and the shard worker keeps running.
package coalesce

import (
	"fmt"
	"sync"
	"time"

	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvwire"
	"swisstm/internal/wal"
)

// Op is an item's wire op. The batchers accept the single-key ones.
type Op = txkvwire.Op

const (
	OpGet    = txkvwire.OpGet
	OpPut    = txkvwire.OpPut
	OpDelete = txkvwire.OpDelete
	OpCAS    = txkvwire.OpCAS
)

// Accepts reports whether op is one an Item may carry.
func Accepts(op Op) bool { return op == OpGet || op == OpPut || op == OpDelete || op == OpCAS }

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
// worker has the rest of the batch to complete and the next to take.
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
	// BatchSize caps the items one flush takes (default 32).
	BatchSize int
	// MaxWait is ignored: no timer holds a batch open. It remains only
	// for callers that still set it.
	MaxWait time.Duration
	// QueueCap bounds each shard's pending items — every accepted item
	// not yet handed to a flush; an enqueue beyond it is shed with
	// Overloaded (default max(4×BatchSize, 256)).
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

// shardQ is one shard's pending items: a FIFO under a mutex, and whether
// its worker is parked on it. The worker parks only on an empty queue, by
// setting parked and receiving the wake token. Whoever clears parked owns
// the token — the enqueuer that makes the queue non-empty, or Close — so
// at most one token is ever outstanding, and the sender never blocks.
type shardQ struct {
	mu      sync.Mutex
	pending []*Item
	parked  bool
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
	wake := sh.parked
	sh.parked = false
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
		wake := sh.parked // a closed queue's worker never parks again
		sh.parked = false
		sh.mu.Unlock()
		if wake {
			sh.wake <- struct{}{}
		}
	}
	c.wg.Wait()
}

// worker owns one shard: park while the queue is empty, take up to
// BatchSize of what is pending under one lock, flush, repeat. It never
// waits for a batch to fill — what queued while it flushed is the next
// batch — so it wakes at most once per batch, however many items it holds.
func (c *Coalescer) worker(shard int, th stm.Thread) {
	defer c.wg.Done()
	sh := c.qs[shard]
	fl := &flusher{c: c, shard: shard, th: th, cm: NewCommit(c.store, c.log, c.feeds)}
	batch := make([]*Item, 0, c.cfg.BatchSize)
	sh.mu.Lock()
	for {
		for len(sh.pending) == 0 && !sh.closed {
			sh.parked = true
			sh.mu.Unlock()
			<-sh.wake
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
	cm    *Commit

	live []*Item
	res  []Result
}

// flush sheds the batch's expired items and runs the rest.
func (fl *flusher) flush(batch []*Item) {
	start := time.Now()

	// TTL expiry inside a batch sheds only the expired item: its
	// deadline passed while it waited for the flush, so its queue
	// phase is exactly the time-to-flush.
	fl.live = fl.live[:0]
	for _, it := range batch {
		if !it.Deadline.IsZero() && start.After(it.Deadline) {
			fl.c.cfg.Metrics.Expired.Inc()
			it.complete(Result{Err: "deadline exceeded while queued for flush",
				Code: txkvwire.CodeDeadlineExceeded, Shed: true,
				QueueNs: uint64(start.Sub(it.enq))})
			continue
		}
		fl.live = append(fl.live, it)
	}
	if len(fl.live) > 0 {
		fl.run(fl.live, start)
	}
}

// run executes live as one engine transaction through the commit scope,
// publishes its feed events and redo frame, and completes every item.
// start is where the items' queue phases end.
func (fl *flusher) run(live []*Item, start time.Time) {
	c, m := fl.c, fl.c.cfg.Metrics
	if cap(fl.res) < len(live) {
		fl.res = make([]Result, len(live))
	}
	res := fl.res[:len(live)]
	clear(res)

	aborts0 := fl.th.Stats().Aborts
	bodyNs, panicked := fl.transact(live, res)
	end := time.Now() // commit is the flush from start, where the queue phases end, less the final body
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
	if panicked != nil {
		// Nothing of the batch applied. Items never observe each other's
		// failures, so find the offender by running them one at a time,
		// in order; alone, it is refused.
		if len(live) > 1 {
			for i := range live {
				fl.run(live[i:i+1], time.Now())
			}
			return
		}
		live[0].complete(Result{Err: fmt.Sprint(panicked), Code: txkvwire.CodeInternal,
			QueueNs: uint64(start.Sub(live[0].enq)), CommitNs: uint64(end.Sub(start))})
		return
	}
	commitNs := uint64(end.Sub(start)) - bodyNs
	walNs, walErr := fl.cm.Publish()

	m.Batches.Inc()
	m.Items.Add(uint64(len(live)))
	m.BatchSize.Record(uint64(len(live)))
	m.FlushNs.Record(uint64(end.Sub(start)) + walNs)

	n := uint64(len(live))
	for i, it := range live {
		r := res[i]
		if walErr != nil && mutated(it, r) {
			// The batch's frame never became durable: refuse the ack for
			// every item that contributed to it.
			r = Result{Err: "wal: " + walErr.Error(), Code: txkvwire.CodeInternal}
		}
		r.QueueNs = uint64(start.Sub(it.enq))
		r.TxnNs = bodyNs / n
		r.CommitNs = commitNs / n
		r.WalNs = walNs / n
		it.complete(r)
	}
}

// transact runs live's engine transaction, filling res, and returns the
// duration of the committing attempt's body. A foreign panic out of the
// body — the store refusing a Put into a full shard — comes back as
// panicked: the engine has rolled the attempt back and released its
// locks (stm.Thread.Unwind), and the scope gives back its tickets.
func (fl *flusher) transact(live []*Item, res []Result) (bodyNs uint64, panicked any) {
	defer func() {
		if panicked = recover(); panicked != nil {
			fl.cm.Abandon()
		}
	}()
	store, cm := fl.c.store, fl.cm
	mutating := false
	for _, it := range live {
		mutating = mutating || it.Op != OpGet
	}
	if !mutating {
		stm.AtomicRO(fl.th, func(tx stm.TxRO) int {
			bt := time.Now()
			for i, it := range live {
				res[i].Val, res[i].Found = store.Get(tx, it.Key)
			}
			bodyNs = uint64(time.Since(bt))
			return 0
		})
		return bodyNs, nil
	}
	stm.Atomic(fl.th, func(tx stm.Tx) int {
		bt := time.Now()
		cm.Begin()
		for i, it := range live {
			switch it.Op {
			case OpGet:
				res[i].Val, res[i].Found = store.Get(tx, it.Key)
			case OpPut:
				res[i].OK = cm.Put(tx, it.Key, it.Val)
			case OpDelete:
				res[i].OK = cm.Delete(tx, it.Key)
			case OpCAS:
				res[i].OK = cm.CAS(tx, it.Key, it.Old, it.Val)
			}
		}
		cm.Reserve()
		bodyNs = uint64(time.Since(bt))
		return 0
	})
	return bodyNs, nil
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
