package txkvserver

import (
	"sync"
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/stm"
	"swisstm/internal/txkvwire"
)

// Change-feed integration (DESIGN.md §14.4). Every committed mutation
// is published to its shard's feed in commit order, whichever path
// executed it: the coalescer publishes its own flushes, and the pooled
// request path carries its events through a pendingFeed — the feed
// twin of pendingLog, with the same ticket discipline. A body collects
// its events as it mutates, reserves one feed ticket per touched shard
// as its LAST step (after every outcome-deciding read), and dispatch
// publishes after the commit. Aborted attempts abandon their tickets
// at body re-entry, exactly like the log slot.

// pendingFeed accumulates one request's feed events and per-shard
// ticket reservations across transaction attempts.
type pendingFeed struct {
	events []coalesce.Event
	shards []int      // shards[i] is the shard of events[i]
	slots  []feedSlot // one reserved ticket per distinct shard
}

type feedSlot struct {
	shard int
	tk    uint64
}

var feedPendPool = sync.Pool{New: func() any { return &pendingFeed{} }}

func getPendingFeed() *pendingFeed { return feedPendPool.Get().(*pendingFeed) }

func putPendingFeed(p *pendingFeed) {
	p.reset()
	feedPendPool.Put(p)
}

func (p *pendingFeed) reset() {
	p.events = p.events[:0]
	p.shards = p.shards[:0]
	p.slots = p.slots[:0]
}

// drop abandons the previous attempt's tickets and clears its events:
// at the top of a (re-)executed body and on a panic out of it.
func (p *pendingFeed) drop(s *Server) {
	for _, sl := range p.slots {
		s.feeds[sl.shard].Abandon(sl.tk)
	}
	p.reset()
}

// add records one committed-if-we-commit mutation. Call only for
// mutations the current attempt actually applied.
func (p *pendingFeed) add(s *Server, e coalesce.Event) {
	p.events = append(p.events, e)
	p.shards = append(p.shards, s.store.ShardOf(stm.Word(e.Key)))
}

// reserve draws one ticket per distinct touched shard, in first-touch
// order. Must be the body's last step (ticket order = commit order).
func (p *pendingFeed) reserve(s *Server) {
	for _, sh := range p.shards {
		have := false
		for _, sl := range p.slots {
			if sl.shard == sh {
				have = true
				break
			}
		}
		if !have {
			p.slots = append(p.slots, feedSlot{shard: sh, tk: s.feeds[sh].Reserve()})
		}
	}
}

// publish hands each shard its events at the reserved ticket. Call
// after the transaction committed; a no-op when nothing was reserved.
func (p *pendingFeed) publish(s *Server) {
	for _, sl := range p.slots {
		var evs []coalesce.Event
		for i, sh := range p.shards {
			if sh == sl.shard {
				evs = append(evs, p.events[i])
			}
		}
		s.feeds[sl.shard].Publish(sl.tk, evs)
	}
	p.reset()
}

// coalesceOp maps the wire ops that ride the per-shard batchers when
// coalescing is on — the single-key ops — to their batcher op; 0 for
// the rest.
func coalesceOp(op txkvwire.Op) coalesce.Op {
	switch op {
	case txkvwire.OpGet:
		return coalesce.OpGet
	case txkvwire.OpPut:
		return coalesce.OpPut
	case txkvwire.OpDelete:
		return coalesce.OpDelete
	case txkvwire.OpCAS:
		return coalesce.OpCAS
	}
	return 0
}

// coalescedReply turns a flushed item's individual result into its wire
// reply. (The result also carries the item's phase share — queue = exact
// time-to-flush, txn/commit/wal = the batch's divided among its items —
// which keeps the phase accounting comparable with the pooled path.)
func (s *Server) coalescedReply(op txkvwire.Op, res coalesce.Result) txkvwire.Reply {
	if res.Err != "" {
		if res.Shed {
			s.m.recordShed(res.Code, false)
		}
		return txkvwire.Reply{Op: op, Err: res.Err, Code: res.Code}
	}
	return txkvwire.Reply{Op: op, Found: res.Found, Val: uint64(res.Val), OK: res.OK}
}

// feedHeartbeat is how often an idle feed stream sends an empty Events
// frame: keeps dead-subscriber detection bounded (the write fails) and
// tells a live client the stream is merely quiet.
const feedHeartbeat = 500 * time.Millisecond

// subscribe turns the connection into a feed subscriber. Every earlier
// reply is out (serve waited for the in-flight coalesced ones), so the
// connection leaves the request plane: it releases its wg slot for a
// subWg one (Add before Done keeps shutdown's subWg.Wait race-free),
// acks, and streams until the feed closes or the client goes away.
func (c *conn) subscribe(req txkvwire.Req, parseNs uint64) {
	c.s.subWg.Add(1)
	c.s.wg.Done()
	r0 := time.Now()
	if c.writeReply(txkvwire.Reply{Op: txkvwire.OpSubscribe}, true) {
		c.s.m.record(txkvwire.OpSubscribe, [phaseCount]uint64{phaseParse: parseNs, phaseReply: uint64(time.Since(r0))})
		c.streamFeed(int(req.Shard), req.From)
	}
}

// streamFeed tails one shard's change feed onto the connection until
// the feed closes (drain: remaining events, then a Draining error
// frame), the subscriber falls out of the retention window (a Rejected
// error frame), or the client goes away. from is the first sequence
// wanted; 0 means "from now".
func (c *conn) streamFeed(shard int, from uint64) {
	f := c.s.feeds[shard]
	cursor := from
	evbuf := make([]coalesce.Event, 0, txkvwire.MaxFeedEvents)
	wire := make([]txkvwire.FeedEvent, 0, txkvwire.MaxFeedEvents)
	hb := time.NewTimer(feedHeartbeat)
	defer hb.Stop()
	for {
		batch, next, wait, done, err := f.Next(cursor, evbuf, txkvwire.MaxFeedEvents)
		cursor = next
		if err != nil {
			c.writeReply(txkvwire.Reply{
				Op: txkvwire.OpSubscribe, Err: err.Error(), Code: txkvwire.CodeRejected}, true)
			return
		}
		if len(batch) > 0 {
			wire = wire[:0]
			for _, e := range batch {
				wire = append(wire, txkvwire.FeedEvent{Seq: e.Seq, Del: e.Del, Key: e.Key, Val: e.Val})
			}
			if !c.writeReply(txkvwire.Reply{Op: txkvwire.OpSubscribe, Events: wire}, true) {
				return
			}
			continue
		}
		if done {
			c.writeReply(txkvwire.Reply{
				Op: txkvwire.OpSubscribe, Err: "draining: feed closed", Code: txkvwire.CodeDraining}, true)
			return
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(feedHeartbeat)
		select {
		case <-wait:
		case <-hb.C:
			// Idle heartbeat: an empty Events frame. Its write failing
			// is how a dead subscriber is detected and released.
			if !c.writeReply(txkvwire.Reply{Op: txkvwire.OpSubscribe}, true) {
				return
			}
		}
	}
}
