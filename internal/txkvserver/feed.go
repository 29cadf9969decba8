package txkvserver

import (
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/txkvwire"
)

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
// acks, and streams until the feed closes or the client goes away. "From
// now" is resolved before the ack, so a commit the client makes after
// reading the ack is streamed.
func (c *conn) subscribe(req txkvwire.Req, parseNs uint64) {
	c.s.subWg.Add(1)
	c.s.wg.Done()
	if req.From == 0 {
		req.From = c.s.feeds[req.Shard].End()
	}
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
	buf := make([]txkvwire.FeedEvent, 0, txkvwire.MaxFeedEvents)
	hb := time.NewTimer(feedHeartbeat)
	defer hb.Stop()
	for {
		batch, next, wait, done, err := f.Next(cursor, buf, txkvwire.MaxFeedEvents)
		cursor = next
		if err != nil {
			c.writeReply(txkvwire.Reply{
				Op: txkvwire.OpSubscribe, Err: err.Error(), Code: txkvwire.CodeRejected}, true)
			return
		}
		if len(batch) > 0 {
			if !c.writeReply(txkvwire.Reply{Op: txkvwire.OpSubscribe, Events: batch}, true) {
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
