package txkvserver

import (
	"sync"
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/txkvwire"
)

// The reply ring (DESIGN.md §14.2): a connection's in-flight coalesced
// items, in request order, between the three parties that touch them.
// The connection goroutine reserves the slot at tail and enqueues the item
// embedded in it; the item's shard flusher completes it, in whatever
// order batches happen to flush; connWriter answers from head, every
// consecutive completed slot in one pass. One mutex, two conds, and no
// allocation per request.

// slot is one in-flight coalesced item and its place in the reply order.
// The item is queued on its shard by pointer and the slot is its sink.
type slot struct {
	coalesce.Item
	ring    *replyRing
	seq     uint64 // request sequence number: this is ring.slots[seq % len]
	op      txkvwire.Op
	parseNs uint64
	res     coalesce.Result
	done    bool
}

type replyRing struct {
	mu    sync.Mutex
	ready sync.Cond // the head slot completed, or the ring closed: wakes connWriter
	space sync.Cond // head advanced: wakes the connection goroutine
	slots []slot    // Config.Pipeline of them: the window
	// Slots [head, tail) are in flight. head == tail, seen under mu by
	// the connection goroutine, is the hand-over of the reply side to it.
	head, tail uint64
	closed     bool
}

func newReplyRing(window int) *replyRing {
	r := &replyRing{slots: make([]slot, window)}
	r.ready.L, r.space.L = &r.mu, &r.mu
	for i := range r.slots {
		r.slots[i].ring = r
	}
	return r
}

func (r *replyRing) at(seq uint64) *slot { return &r.slots[seq%uint64(len(r.slots))] }

// reserve takes the next slot in request order for an item about to be
// enqueued, blocking while the window is full.
func (r *replyRing) reserve(op txkvwire.Op, parseNs uint64) *slot {
	r.mu.Lock()
	for r.tail-r.head == uint64(len(r.slots)) {
		r.space.Wait()
	}
	sl := r.at(r.tail)
	sl.seq, sl.op, sl.parseNs, sl.done = r.tail, op, parseNs, false
	r.tail++
	r.mu.Unlock()
	return sl
}

// unreserve gives the last reserved slot back: its item was refused, so
// nobody will complete it.
func (r *replyRing) unreserve() {
	r.mu.Lock()
	r.tail--
	r.mu.Unlock()
}

// waitIdle blocks until every reserved slot has been answered. On return
// the caller owns the connection's reply side.
func (r *replyRing) waitIdle() {
	r.mu.Lock()
	for r.head != r.tail {
		r.space.Wait()
	}
	r.mu.Unlock()
}

// close tells connWriter to exit once the ring is idle, and waits for
// that idleness.
func (r *replyRing) close() {
	r.mu.Lock()
	r.closed = true
	r.ready.Signal()
	for r.head != r.tail {
		r.space.Wait()
	}
	r.mu.Unlock()
}

// completed reports whether the slot at seq is reserved and has its
// result.
func (r *replyRing) completed(seq uint64) bool {
	r.mu.Lock()
	ok := seq != r.tail && r.at(seq).done
	r.mu.Unlock()
	return ok
}

// Complete is the slot's coalesce.Sink: called once by the shard flusher
// that executed (or shed) the item. It never blocks, and wakes the writer
// only for the slot the writer is waiting on — the head.
func (sl *slot) Complete(res coalesce.Result) {
	r := sl.ring
	r.mu.Lock()
	sl.res, sl.done = res, true
	head := sl.seq == r.head
	r.mu.Unlock()
	if head {
		r.ready.Signal()
	}
}

// connWriter sends the replies of a connection's coalesced items in
// request order: it waits for the head slot, takes every consecutive
// completed slot in one pass, and flushes with the last of them unless
// the slot after it is complete too — so it never parks on unflushed
// replies, and a run of completions costs one write. head moves only
// after that flush: the connection goroutine may take the reply side the
// moment it sees the ring idle. After a write error it keeps consuming —
// wait, discard, advance — so the connection goroutine is never left
// blocked on the window. It exits when serveConn has closed the ring and
// the ring is idle, and touches nothing after its last advance.
func (c *conn) connWriter() {
	r := c.ring
	r.mu.Lock()
	for {
		for r.head == r.tail || !r.at(r.head).done {
			if r.closed && r.head == r.tail {
				r.mu.Unlock()
				return
			}
			r.ready.Wait()
		}
		start, end := r.head, r.head+1
		for end != r.tail && r.at(end).done {
			end++
		}
		r.mu.Unlock()
		// Slots [start, end) are the writer's alone until head passes them.
		for seq := start; seq != end && !c.failed; seq++ {
			sl := r.at(seq)
			flush := seq+1 == end && !r.completed(end)
			r0 := time.Now()
			if c.writeReply(c.s.coalescedReply(sl.op, sl.res), flush) {
				c.s.m.record(sl.op, sl.parseNs, sl.res.QueueNs, sl.res.TxnNs, sl.res.CommitNs, sl.res.WalNs,
					uint64(time.Since(r0).Nanoseconds()))
			}
		}
		r.mu.Lock()
		r.head = end
		r.space.Signal()
	}
}
