package kernel

import (
	"errors"
	"testing"

	"swisstm/internal/stm"
)

// TestAbortPath: the record helpers keep stm.Stats' partitions — every
// abort delivered once, by unwinding or by a checked return — and end the
// logical transaction where a commit or a body error ends it. A foreign
// panic is no rollback: Unwind neither claims nor counts it. (The engines'
// abort-path suites check that it propagates, not what it counts.)
func TestAbortPath(t *testing.T) {
	th := NewThread("kernel", 3, 1, nil)
	th.Aborted(4)
	if !th.Unwind(stm.SignalRollback) {
		t.Fatal("Unwind refused the rollback signal")
	}
	th.Backoff()
	if th.Unwind(errors.New("foreign")) {
		t.Fatal("Unwind claimed a foreign panic")
	}
	th.Aborted(2)
	th.AbortedUser()
	if th.Succ != 0 {
		t.Errorf("Succ = %d after a body error, want 0", th.Succ)
	}
	th.Backoff()
	th.Committed(5, 1)
	th.CommittedRO(6)
	s := th.Stats()
	want := stm.Stats{Commits: 2, ROCommits: 1, Aborts: 2, AbortsUser: 1, AbortsUnwound: 1, AbortsReturned: 1, ReadsLogged: 17}
	if s != want || th.Succ != 0 {
		t.Errorf("stats %+v, Succ %d;\nwant %+v, Succ 0", s, th.Succ, want)
	}
}

// TestHeapTableSizedToArena: a lock table gets no more entries than its
// arena has stripes (rounded up to a power of two), and no arena address
// changes stripe for it: Stripe(a) is still (a>>shift) masked by
// 2^TableBits-1, so aliasing, read-set dedup and every count stay as in a
// full-size table.
func TestHeapTableSizedToArena(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     WordConfig
		entries int
	}{
		{"clamped", WordConfig{ArenaWords: 1 << 14, StripeWords: 4, TableBits: 18}, 1 << 12},
		{"clamped-uneven", WordConfig{ArenaWords: 1000, StripeWords: 8, TableBits: 18}, 1 << 7},
		{"unclamped", WordConfig{ArenaWords: 1 << 14, StripeWords: 4, TableBits: 8}, 1 << 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := NewHeap("kernel", &c.cfg)
			if h.Entries() != c.entries {
				t.Fatalf("Entries() = %d, want %d", h.Entries(), c.entries)
			}
			full := stm.Addr(1)<<c.cfg.TableBits - 1
			for a := stm.Addr(0); a < stm.Addr(h.Arena().Cap()); a++ {
				if got, want := h.Stripe(a), (a>>h.Shift)&full; got != want {
					t.Fatalf("Stripe(%d) = %d, want %d", a, got, want)
				}
			}
		})
	}
}
