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
// order batches happen to flush; connWriter answers from head in waves —
// once the head completes, it waits for the rest of what was in flight
// then, and sends it all in one write. One mutex, two conds, and no
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
	ready sync.Cond // the head or the open wave completed, or the ring closed: wakes connWriter
	space sync.Cond // head advanced: wakes the connection goroutine
	slots []slot    // Config.Pipeline of them: the window
	// Slots [head, tail) are in flight. head == tail, seen under mu by
	// the connection goroutine, is the hand-over of the reply side to it.
	head, tail uint64
	// Slots [head, wave) are the open wave, undone of them not yet
	// completed; wave <= head means no wave is open.
	wave   uint64
	undone int
	closed bool
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
// nobody will complete it — and a wave that counted it must not wait for
// it.
func (r *replyRing) unreserve() {
	r.mu.Lock()
	r.tail--
	if r.tail < r.wave {
		r.wave = r.tail
		if r.undone--; r.undone == 0 {
			r.ready.Signal()
		}
	}
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

// Complete is the slot's coalesce.Sink: called once by the shard flusher
// that executed (or shed) the item. It never blocks, and wakes the writer
// only when it is what the writer waits for: the head, or the last undone
// slot of the open wave.
func (sl *slot) Complete(res coalesce.Result) {
	r := sl.ring
	r.mu.Lock()
	sl.res, sl.done = res, true
	var wake bool
	if sl.seq < r.wave {
		r.undone--
		wake = r.undone == 0
	} else {
		wake = sl.seq == r.head
	}
	r.mu.Unlock()
	if wake {
		r.ready.Signal()
	}
}

// connWriter sends the replies of a connection's coalesced items in
// request order, in waves. When the head slot completes it opens a wave —
// the slots reserved at that moment — and waits until all of them have
// completed; then it takes every consecutive completed slot in one pass
// and one flush. A reply so waits only for items that were already
// queued or executing when its wave opened, never for a later request,
// and the writer never parks on unflushed replies. head moves only after
// the flush: the connection goroutine may take the reply side the moment
// it sees the ring idle. After a write error it keeps consuming — wait,
// discard, advance — so the connection goroutine is never left blocked on
// the window. It exits when serveConn has closed the ring and the ring is
// idle, and touches nothing after its last advance.
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
		r.wave, r.undone = r.tail, 0
		for seq := r.head + 1; seq != r.tail; seq++ {
			if !r.at(seq).done {
				r.undone++
			}
		}
		for r.undone > 0 {
			r.ready.Wait()
		}
		start, end := r.head, r.wave
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
		if !c.writeReply(c.s.coalescedReply(sl.op, sl.res), seq+1 == end) {
			return
		}
	}
	share := uint64(time.Since(p0)) / (end - start)
	for seq := start; seq != end; seq++ {
		sl := r.at(seq)
		m.observe(sl.op, [phaseCount]uint64{sl.parseNs, sl.res.QueueNs, sl.res.TxnNs, sl.res.CommitNs, sl.res.WalNs, share})
	}
}
