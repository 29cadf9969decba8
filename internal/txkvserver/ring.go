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
// enqueued, blocking while the window is full; waited says it did.
func (r *replyRing) reserve(op txkvwire.Op, parseNs uint64) (sl *slot, waited bool) {
	r.mu.Lock()
	for r.tail-r.head == uint64(len(r.slots)) {
		waited = true
		r.space.Wait()
	}
	sl = r.at(r.tail)
	sl.seq, sl.op, sl.parseNs, sl.done = r.tail, op, parseNs, false
	r.tail++
	r.mu.Unlock()
	return sl, waited
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
		if !c.failed {
			c.writePass(start, end)
		}
		r.mu.Lock()
		r.head = end
		r.space.Signal()
	}
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
		m.ops[sl.op].requests.Inc()
		if !c.writeReply(c.s.coalescedReply(sl.op, sl.res), seq+1 == end && !r.completed(end)) {
			return
		}
	}
	share := uint64(time.Since(p0)) / (end - start)
	for seq := start; seq != end; seq++ {
		sl := r.at(seq)
		m.observe(sl.op, [phaseCount]uint64{sl.parseNs, sl.res.QueueNs, sl.res.TxnNs, sl.res.CommitNs, sl.res.WalNs, share})
	}
}
