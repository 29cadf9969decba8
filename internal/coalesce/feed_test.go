package coalesce_test

import (
	"strings"
	"testing"
	"time"

	"swisstm/internal/coalesce"
)

// collect drains whatever is ready right now starting at cursor.
func collect(t *testing.T, f *coalesce.Feed, cursor uint64) ([]coalesce.Event, uint64) {
	t.Helper()
	var all []coalesce.Event
	for {
		batch, next, _, _, err := f.Next(cursor, nil, 16)
		if err != nil {
			t.Fatalf("Next(%d): %v", cursor, err)
		}
		if len(batch) == 0 {
			return all, cursor
		}
		all = append(all, batch...)
		cursor = next
	}
}

// TestFeedTicketOrder pins the ticket discipline: a publish ahead of
// its predecessor parks, and sequences come out in ticket order, not
// publish order.
func TestFeedTicketOrder(t *testing.T) {
	f := coalesce.NewFeed(16, nil)
	t1, t2, t3 := f.Reserve(), f.Reserve(), f.Reserve()

	f.Publish(t3, []coalesce.Event{{Key: 30}})
	f.Publish(t2, []coalesce.Event{{Key: 20}, {Key: 21}})
	if got, _ := collect(t, f, 1); len(got) != 0 {
		t.Fatalf("events visible before ticket 1 landed: %v", got)
	}
	f.Publish(t1, []coalesce.Event{{Key: 10}})

	got, _ := collect(t, f, 1)
	wantKeys := []uint64{10, 20, 21, 30}
	if len(got) != len(wantKeys) {
		t.Fatalf("got %d events, want %d", len(got), len(wantKeys))
	}
	for i, e := range got {
		if e.Key != wantKeys[i] || e.Seq != uint64(i)+1 {
			t.Fatalf("event %d: %+v, want key %d seq %d", i, e, wantKeys[i], i+1)
		}
	}
}

// TestFeedAbandonReleasesTicket pins abort handling: an abandoned
// ticket unblocks its successors without leaving a gap in sequences.
func TestFeedAbandonReleasesTicket(t *testing.T) {
	f := coalesce.NewFeed(16, nil)
	t1, t2 := f.Reserve(), f.Reserve()
	f.Publish(t2, []coalesce.Event{{Key: 2}})
	f.Abandon(t1)
	got, _ := collect(t, f, 1)
	if len(got) != 1 || got[0].Key != 2 || got[0].Seq != 1 {
		t.Fatalf("after abandon: %v, want key 2 at seq 1", got)
	}
	// Abandon parked ahead of admit, then land the blocker.
	t3, t4 := f.Reserve(), f.Reserve()
	f.Abandon(t4)
	f.Publish(t3, []coalesce.Event{{Key: 3}})
	got, _ = collect(t, f, 2)
	if len(got) != 1 || got[0].Key != 3 || got[0].Seq != 2 {
		t.Fatalf("after parked abandon: %v, want key 3 at seq 2", got)
	}
}

// TestFeedLaggedSubscriber pins the overflow contract: a cursor behind
// the retained window errors instead of silently skipping events.
func TestFeedLaggedSubscriber(t *testing.T) {
	f := coalesce.NewFeed(4, nil)
	for i := 0; i < 7; i++ {
		f.Publish(f.Reserve(), []coalesce.Event{{Key: uint64(i)}})
	}
	// Seqs 1..7 published, capacity 4 → oldest retained is 4.
	_, _, _, _, err := f.Next(1, nil, 16)
	if err == nil || !strings.Contains(err.Error(), "feed lagged") {
		t.Fatalf("stale cursor: err=%v, want lag error", err)
	}
	got, _ := collect(t, f, 4)
	if len(got) != 4 || got[0].Seq != 4 || got[3].Seq != 7 {
		t.Fatalf("oldest retained window: %v, want seqs 4..7", got)
	}
}

// TestFeedCursorZeroSkipsHistory pins "from now": cursor 0 resolves to
// the next unassigned sequence, delivering only future events.
func TestFeedCursorZeroSkipsHistory(t *testing.T) {
	f := coalesce.NewFeed(16, nil)
	f.Publish(f.Reserve(), []coalesce.Event{{Key: 1}, {Key: 2}})
	batch, next, wait, done, err := f.Next(0, nil, 16)
	if err != nil || done || len(batch) != 0 || wait == nil {
		t.Fatalf("Next(0) over history: batch=%v done=%v err=%v", batch, done, err)
	}
	f.Publish(f.Reserve(), []coalesce.Event{{Key: 3}})
	select {
	case <-wait:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the waiting subscriber")
	}
	got, _ := collect(t, f, next)
	if len(got) != 1 || got[0].Key != 3 {
		t.Fatalf("from-now subscriber saw %v, want only key 3", got)
	}
}

// TestFeedPublishWithoutWaiterDoesNotAllocate: an in-order Publish that
// no subscriber waits on costs no allocation — the wake channel is made
// only when Next hands one out.
func TestFeedPublishWithoutWaiterDoesNotAllocate(t *testing.T) {
	f := coalesce.NewFeed(16, nil)
	events := []coalesce.Event{{Key: 1}}
	if got := testing.AllocsPerRun(1000, func() { f.Publish(f.Reserve(), events) }); got != 0 {
		t.Fatalf("%.2f allocations per Publish with no subscriber waiting, want 0", got)
	}
}

// TestFeedCloseDrainsThenDone pins shutdown: Close wakes waiters,
// remaining events stay readable, and only then does Next report done.
func TestFeedCloseDrainsThenDone(t *testing.T) {
	f := coalesce.NewFeed(16, nil)
	f.Publish(f.Reserve(), []coalesce.Event{{Key: 9}})
	_, _, wait, _, _ := f.Next(2, nil, 16)
	go f.Close()
	select {
	case <-wait:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the waiting subscriber")
	}
	batch, next, _, done, err := f.Next(1, nil, 16)
	if err != nil || done || len(batch) != 1 || batch[0].Key != 9 {
		t.Fatalf("drain after close: batch=%v done=%v err=%v", batch, done, err)
	}
	if _, _, _, done, _ := f.Next(next, nil, 16); !done {
		t.Fatal("fully drained closed feed must report done")
	}
}
