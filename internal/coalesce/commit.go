package coalesce

import (
	"time"

	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/wal"
)

// Commit is the commit choreography of every mutating transaction on the
// store, whoever runs it — a coalesced flush, a unary request, a wire
// Batch (DESIGN.md §12.2). It is the only code that touches a log or feed
// ticket. One scope serves one transaction at a time:
//
//	stm.Atomic(th, func(tx stm.Tx) T {
//		cm.Begin()             // a retry: release the last attempt's tickets
//		cm.Put(tx, k, v) ...   // apply, and record what was applied
//		cm.Reserve()           // LAST: after every read deciding the outcome
//		return ...
//	})                         // a foreign panic out of it: cm.Abandon()
//	walNs, err := cm.Publish() // after the commit: feed first, then log
type Commit struct {
	store *txkv.Store
	log   *wal.Writer // nil: no commit log
	feeds []*Feed     // nil: no change feeds; else one per shard

	// What the current attempt applied, in order.
	redo   []txkv.RedoEntry
	events []Event

	// The tickets it holds: one log ticket iff it has redo, one feed
	// ticket per touched shard in first-touch order.
	logTk   wal.Ticket
	logLive bool
	slots   []feedSlot

	buf []byte  // redo encode buffer
	evs []Event // one slot's events, gathered for its publish
}

type feedSlot struct {
	shard int
	tk    uint64
}

// NewCommit returns a scope over store. log and feeds may each be nil.
func NewCommit(store *txkv.Store, log *wal.Writer, feeds []*Feed) *Commit {
	return &Commit{store: store, log: log, feeds: feeds}
}

// Begin opens an attempt: first call of every mutating transaction body,
// so a retried body starts from nothing and holds nothing.
func (c *Commit) Begin() { c.Abandon() }

// Abandon gives back the tickets of an attempt that will not commit and
// forgets what it recorded. Call it when a foreign panic leaves the body
// (the engine has already rolled the attempt back).
func (c *Commit) Abandon() {
	if c.logLive {
		c.log.Abandon(c.logTk)
		c.logLive = false
	}
	for _, sl := range c.slots {
		c.feeds[sl.shard].Abandon(sl.tk)
	}
	c.slots = c.slots[:0]
	c.redo = c.redo[:0]
	c.events = c.events[:0]
}

// wrote records the post-image of a key the attempt set.
func (c *Commit) wrote(key, val stm.Word) {
	c.redo = append(c.redo, txkv.RedoEntry{Op: txkv.RedoPut, Key: key, Val: val})
	c.events = append(c.events, Event{Key: uint64(key), Val: uint64(val)})
}

func (c *Commit) shardOf(e Event) int { return c.store.ShardOf(stm.Word(e.Key)) }

// Put sets key and reports whether it was inserted.
func (c *Commit) Put(tx stm.Tx, key, val stm.Word) bool {
	ins := c.store.Put(tx, key, val)
	c.wrote(key, val)
	return ins
}

// Delete removes key; false, recording nothing, when it is absent.
func (c *Commit) Delete(tx stm.Tx, key stm.Word) bool {
	if !c.store.Delete(tx, key) {
		return false
	}
	c.redo = append(c.redo, txkv.RedoEntry{Op: txkv.RedoDelete, Key: key})
	c.events = append(c.events, Event{Del: true, Key: uint64(key)})
	return true
}

// CAS swaps key from old to val; false, recording nothing, on a miss. A
// hit is logged as a put of its post-image.
func (c *Commit) CAS(tx stm.Tx, key, old, val stm.Word) bool {
	if !c.store.CAS(tx, key, old, val) {
		return false
	}
	c.wrote(key, val)
	return true
}

// Transfer moves amount from keys[0] to each of keys[1:]; false,
// recording nothing, when the store refuses it. keys is kept until
// Publish. The feed carries post-images, read back inside the same
// transaction (read-own-write is exact).
func (c *Commit) Transfer(tx stm.Tx, keys []stm.Word, amount stm.Word) bool {
	if !c.store.Transfer(tx, keys, amount) {
		return false
	}
	c.redo = append(c.redo, txkv.RedoEntry{Op: txkv.RedoTransfer, Amount: amount, Keys: keys})
	for _, k := range keys {
		v, _ := c.store.Get(tx, k)
		c.events = append(c.events, Event{Key: uint64(k), Val: uint64(v)})
	}
	return true
}

// Reserve draws the attempt's tickets. It must be the body's last step,
// after every read that decides the outcome: ticket order then agrees
// with commit order for conflicting transactions. An attempt that applied
// nothing — reads, CAS misses, absent deletes — draws none; one that will
// not commit gives its tickets back (Begin, Abandon), or the sequencers
// stall behind them.
func (c *Commit) Reserve() {
	if len(c.redo) > 0 && c.log != nil {
		c.logTk = c.log.Reserve()
		c.logLive = true
	}
	if c.feeds == nil {
		return
	}
next:
	for _, e := range c.events {
		sh := c.shardOf(e)
		for _, sl := range c.slots {
			if sl.shard == sh {
				continue next
			}
		}
		c.slots = append(c.slots, feedSlot{sh, c.feeds[sh].Reserve()})
	}
}

// Publish finishes the committed transaction's tickets; without any it
// does nothing. Feed first: the feed reflects the in-memory commit, which
// has already happened, so tailers are not gated on fsync. Then the log,
// waiting out the durability the sync mode demands; walNs is that wait.
// A non-nil error means the redo frame is not durable and the mutations
// must not be acknowledged (they may have applied in memory, so they are
// not retryable either).
func (c *Commit) Publish() (walNs uint64, err error) {
	for _, sl := range c.slots {
		c.evs = c.evs[:0]
		for _, e := range c.events {
			if c.shardOf(e) == sl.shard {
				c.evs = append(c.evs, e)
			}
		}
		c.feeds[sl.shard].Publish(sl.tk, c.evs)
	}
	c.slots = c.slots[:0]
	if !c.logLive {
		return 0, nil
	}
	c.logLive = false
	t0 := time.Now()
	buf, err := txkv.AppendRedo(c.buf[:0], c.redo)
	if err != nil {
		c.log.Abandon(c.logTk)
	} else {
		c.buf = buf
		err = c.log.Publish(c.logTk, buf)
	}
	return uint64(time.Since(t0)), err
}
