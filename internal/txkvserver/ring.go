package txkvserver

import (
	"sync"
	"time"

	"swisstm/internal/coalesce"
)

// The reply ring (DESIGN.md §14.2): a connection's in-flight coalesced
// items, in request order. The connection goroutine reserves and answers
// them; shard flushers complete them, in whatever order batches flush.

// slot is one in-flight coalesced item and its place in the reply order.
// The item is queued on its shard by pointer and the slot is its sink.
type slot struct {
	coalesce.Item
	ring    *replyRing
	parseNs uint64
	res     coalesce.Result
}

type replyRing struct {
	slots []slot // Config.Pipeline of them: the window
	// Slots [head, tail) are reserved and not yet answered. Only the
	// connection goroutine touches head and tail.
	head, tail uint64

	mu     sync.Mutex
	idle   sync.Cond // undone reached 0: wakes the connection goroutine in answer
	undone int       // reserved slots not yet completed
}

func newReplyRing(window int) *replyRing {
	r := &replyRing{slots: make([]slot, window)}
	r.idle.L = &r.mu
	for i := range r.slots {
		r.slots[i].ring = r
	}
	return r
}

func (r *replyRing) at(seq uint64) *slot { return &r.slots[seq%uint64(len(r.slots))] }

func (r *replyRing) full() bool { return r.tail-r.head == uint64(len(r.slots)) }

// reserve takes the next slot in request order for an item about to be
// enqueued. The window must not be full.
func (r *replyRing) reserve(parseNs uint64) *slot {
	sl := r.at(r.tail)
	sl.parseNs = parseNs
	r.tail++
	r.mu.Lock()
	r.undone++
	r.mu.Unlock()
	return sl
}

// unreserve gives the last reserved slot back: its item was refused, so
// nobody will complete it.
func (r *replyRing) unreserve() {
	r.tail--
	r.mu.Lock()
	r.undone--
	r.mu.Unlock()
}

// Complete is the slot's coalesce.Sink: called once by the shard flusher
// that executed (or shed) the item. It never blocks, and wakes the
// connection goroutine only when the last reserved slot completes.
func (sl *slot) Complete(res coalesce.Result) {
	r := sl.ring
	r.mu.Lock()
	sl.res = res
	if r.undone--; r.undone == 0 {
		r.idle.Signal()
	}
	r.mu.Unlock()
}

// answer waits until every reserved slot has completed, then writes their
// replies in one pass and one flush. A reply so waits only for the items
// in flight beside it: serve answers before a blocking read, so a later
// request is not read until the pass is written. After a write error it
// still waits, so no item is left queued, and discards the replies. It
// reports whether the reply side is still usable.
func (c *conn) answer() bool {
	if r := c.ring; r != nil && r.head != r.tail {
		r.mu.Lock()
		for r.undone > 0 {
			r.idle.Wait()
		}
		r.mu.Unlock()
		if !c.failed {
			c.writePass(r.head, r.tail)
		}
		r.head = r.tail
	}
	return !c.failed
}

// writePass answers slots [start, end) and books them. The pass is timed
// as a whole — two clock reads — and each reply's reply phase is an equal
// share of it, the way a flush shares its transaction over its batch. A
// request is counted before its reply is written: a client that has read
// its replies must find them in Stats.Requests (the benchmark's oracle).
// A pass cut short by a write error observes nothing.
func (c *conn) writePass(start, end uint64) {
	r, m := c.ring, c.s.m
	p0 := time.Now()
	for seq := start; seq != end; seq++ {
		sl := r.at(seq)
		m.ops[sl.Op].requests.Inc()
		if !c.writeReply(c.s.coalescedReply(sl.Op, sl.res), seq+1 == end) {
			return
		}
	}
	share := uint64(time.Since(p0)) / (end - start)
	for seq := start; seq != end; seq++ {
		sl := r.at(seq)
		m.observe(sl.Op, [phaseCount]uint64{sl.parseNs, sl.res.QueueNs, sl.res.TxnNs, sl.res.CommitNs, sl.res.WalNs, share})
	}
}
