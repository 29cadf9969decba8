// Per-shard change feed: an append-only sequence of committed
// mutations, tailable by subscribers (DESIGN.md §14.4). Publishers go
// through a ticket.Sequencer (DESIGN.md §12.2), so event sequence
// numbers are assigned in commit order and are contiguous per shard.
package coalesce

import (
	"fmt"
	"slices"
	"sync"

	"swisstm/internal/obs"
	"swisstm/internal/ticket"
	"swisstm/internal/txkvwire"
)

// Event is one committed mutation in a shard's change feed, the type a
// subscriber receives on the wire.
type Event = txkvwire.FeedEvent

// Feed is one shard's change feed: a bounded ring of recent events
// plus a ticket sequencer admitting publishers in commit order.
// Subscribers that fall more than the ring capacity behind are lagged
// out with an error rather than stalling publishers.
type Feed struct {
	capacity int
	events   *obs.Counter // optional: events published

	seq *ticket.Sequencer[[]Event] // appends to the ring, under mu

	mu     sync.Mutex
	next   uint64        // next seq to assign (1-based)
	start  uint64        // oldest seq still retained
	buf    []Event       // ring storage, len == capacity
	wake   chan struct{} // handed to waiters by Next; closed on the next append
	closed bool
}

// DefaultFeedCap bounds each shard's retained event window. At ~32
// bytes per event this is ~128 KiB per shard.
const DefaultFeedCap = 1 << 12

// NewFeed returns an empty feed retaining up to capacity events
// (DefaultFeedCap when capacity <= 0). events, when non-nil, counts
// every published event.
func NewFeed(capacity int, events *obs.Counter) *Feed {
	if capacity <= 0 {
		capacity = DefaultFeedCap
	}
	f := &Feed{
		capacity: capacity,
		events:   events,
		next:     1,
		start:    1,
		buf:      make([]Event, capacity),
	}
	f.seq = ticket.New(slices.Clone[[]Event], f.appendLocked)
	return f
}

// Reserve draws the next ticket; publish or abandon it exactly once
// after the transaction body returns.
func (f *Feed) Reserve() uint64 { return f.seq.Reserve() }

// Publish appends events under tk's position in the commit order,
// assigning contiguous sequence numbers. A publish ahead of its
// predecessors parks (copying events) until they land.
func (f *Feed) Publish(tk uint64, events []Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq.Publish(tk, events)
}

// Abandon releases tk without events — a retried transaction attempt
// dropping the ticket of the attempt that did not commit.
func (f *Feed) Abandon(tk uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq.Abandon(tk)
}

// appendLocked is the sequencer's admit: events enter the ring and
// subscribers are woken.
func (f *Feed) appendLocked(events []Event) {
	if len(events) == 0 {
		return
	}
	for i := range events {
		e := events[i]
		e.Seq = f.next
		f.buf[(f.next-1)%uint64(f.capacity)] = e
		f.next++
	}
	if f.next-f.start > uint64(f.capacity) {
		f.start = f.next - uint64(f.capacity)
	}
	if f.events != nil {
		f.events.Add(uint64(len(events)))
	}
	f.wakeLocked()
}

// Next copies up to max ready events with seq >= cursor into dst[:0].
// cursor 0 means "from now" (skip history). The returned next value is
// the cursor for the following call. When no events are ready, batch
// is empty and wait is a channel closed on the next append; done
// additionally reports that the feed is closed and fully delivered. A
// non-nil err means the subscriber lagged: events at cursor were
// already evicted from the ring.
func (f *Feed) Next(cursor uint64, dst []Event, max int) (batch []Event, next uint64, wait <-chan struct{}, done bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cursor == 0 {
		cursor = f.next
	}
	if cursor < f.start {
		return nil, cursor, nil, false,
			fmt.Errorf("feed lagged: cursor %d evicted (oldest retained seq %d)", cursor, f.start)
	}
	batch = dst[:0]
	for cursor < f.next && len(batch) < max {
		batch = append(batch, f.buf[(cursor-1)%uint64(f.capacity)])
		cursor++
	}
	if len(batch) > 0 {
		return batch, cursor, nil, false, nil
	}
	if f.closed {
		return nil, cursor, nil, true, nil
	}
	if f.wake == nil {
		f.wake = make(chan struct{})
	}
	return nil, cursor, f.wake, false, nil
}

// End returns the next sequence number to be assigned: the feed holds
// exactly the events with seq in [1, End()).
func (f *Feed) End() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Close marks the feed finished and wakes every waiting subscriber;
// Next drains remaining events, then reports done.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	f.wakeLocked()
}

// wakeLocked wakes the waiters Next has handed the current channel to.
// The next one is made only when Next hands one out again, so an append
// with no subscriber waiting allocates nothing.
func (f *Feed) wakeLocked() {
	if f.wake != nil {
		close(f.wake)
		f.wake = nil
	}
}
