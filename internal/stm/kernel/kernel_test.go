package kernel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
	want := stm.Stats{Commits: 2, ROCommits: 1, Aborts: 2, AbortCauses: stm.AbortCauses{AbortsUser: 1}, AbortsUnwound: 1, AbortsReturned: 1, ReadsLogged: 17}
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

// TestReadSetSmallTable: below the 2 MiB mem.NewLog maps, a read log
// starts as a Go slice with room for 1 024 entries and grows by append;
// Seen has one bit per entry.
func TestReadSetSmallTable(t *testing.T) {
	o := new(Thread)
	rs := NewReadSet(o, 4096)
	if len(rs.Log) != 0 || cap(rs.Log) != 1024 || len(rs.Seen) != 4096/64 {
		t.Fatalf("a 4 096-entry read set: log len %d cap %d, %d bitmap words; want 0, 1 024, 64", len(rs.Log), cap(rs.Log), len(rs.Seen))
	}
}

// TestReadSetPushNeverGrows: Push logs in place while the log has room and
// refuses, leaving the log as it was, once it has none; the read paths
// append to a full log out of line.
func TestReadSetPushNeverGrows(t *testing.T) {
	rs := NewReadSet(new(Thread), 4096)
	base := &rs.Log[:1][0]
	for i := range cap(rs.Log) {
		if !rs.Push(uint32(i), uint64(i)<<1) {
			t.Fatalf("Push %d refused with room for %d", i, cap(rs.Log))
		}
	}
	if rs.Push(9999, 2) || len(rs.Log) != 1024 || &rs.Log[0] != base || rs.Log[1023] != (Read{Idx: 1023, Ver: 2046}) {
		t.Fatalf("a full log: len %d, moved %v, last %v", len(rs.Log), &rs.Log[0] != base, rs.Log[len(rs.Log)-1])
	}
}

// TestLockWord pins the owned-word encoding: Owner and Owns, Tag, OwnsTag
// and TagID round-trip at the first and last thread id and the first and
// last write-log index, and an owner refuses a free word and another
// thread's word.
func TestLockWord(t *testing.T) {
	if TagOf(0) != 0 {
		t.Errorf("a free w-lock has owner bits %#x", TagOf(0))
	}
	for _, id := range []int{0, stm.MaxThreads - 1} {
		other := stm.MaxThreads - 1 - id
		for _, idx := range []uint32{0, IdxMask} {
			w := Owner(id) | uint64(idx)<<1
			if got, mine := Owns(w, Owner(id)); !mine || got != idx {
				t.Errorf("Owns(Owner(%d) | %#x<<1) = %#x, %v; want %#x, true", id, idx, got, mine, idx)
			}
			if _, mine := Owns(w, Owner(other)); mine {
				t.Errorf("thread %d owns thread %d's word %#x", other, id, w)
			}
			if w&1 == 0 || uint64(Tag(id)|idx)<<1|1 != w {
				t.Errorf("owned word %#x is not (Tag(%d) | %#x)<<1 | 1", w, id, idx)
			}
			if got, mine := OwnsTag(Tag(id)|idx, Tag(id)); !mine || got != idx || TagID(Tag(id)|idx) != id || TagOf(Tag(id)|idx) != Tag(id) {
				t.Errorf("w-lock Tag(%d) | %#x: OwnsTag %#x, %v; TagID %d", id, idx, got, mine, TagID(Tag(id)|idx))
			}
			if _, mine := OwnsTag(Tag(id)|idx, Tag(other)); mine {
				t.Errorf("thread %d owns thread %d's w-lock", other, id)
			}
		}
		for _, ver := range []uint64{0, 1, uint64(Tag(id)), 1 << 62} {
			if _, mine := Owns(ver<<1, Owner(id)); mine {
				t.Errorf("thread %d owns the free word of version %#x", id, ver)
			}
		}
	}
}

// TestSample: a free, still word samples consistently; an owned word and a
// word that moves between Sample's two loads do not.
func TestSample(t *testing.T) {
	var l, d atomic.Uint64
	l.Store(7 << 1)
	d.Store(42)
	if w, val, ok := Sample(&l, &d); !ok || w != 7<<1 || val != 42 {
		t.Fatalf("free word: Sample = %#x, %d, %v; want %#x, 42, true", w, val, ok, 7<<1)
	}
	l.Store(Owner(3) | 5<<1)
	if w, _, ok := Sample(&l, &d); ok || w != Owner(3)|5<<1 {
		t.Fatalf("owned word: Sample = %#x, _, %v; want %#x, false", w, ok, Owner(3)|5<<1)
	}
	if runtime.NumCPU() < 2 {
		t.Skip("a word moves between two loads only under a writer on another CPU")
	}
	l.Store(0)
	var stop atomic.Bool
	go func() {
		for !stop.Load() {
			l.Add(2) // a committer publishing version after version
		}
	}()
	defer stop.Store(true)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		for range 1 << 12 {
			if w, _, ok := Sample(&l, &d); !ok {
				if w&1 != 0 {
					t.Fatalf("Sample returned owned word %#x of a free stripe", w)
				}
				return
			}
		}
	}
	t.Fatal("Sample accepted every read of a word moving under it for 5 s")
}

// TestValidateAndRelease: a logged read passes Validate while its stripe
// holds the logged word, or the caller's own lock whose lock-set entry
// replaced it; a newer word, a foreign lock and an own lock that replaced
// another word fail it. Validate counts one validation of len(log) reads,
// and Release hands every stripe of a lock set back at its replaced word.
func TestValidateAndRelease(t *testing.T) {
	locks := make([]atomic.Uint64, 4)
	for i := range locks {
		locks[i].Store(uint64(i) << 1)
	}
	log := []Read{{Idx: 0, Ver: 0 << 1}, {Idx: 1, Ver: 1 << 1}, {Idx: 2, Ver: 2 << 1}}
	own := Owner(5)
	set := []Read{{Idx: 3, Ver: 3 << 1}, {Idx: 2, Ver: 2 << 1}} // this owner locks stripes 3, then 2
	locks[3].Store(own | 0<<1)
	locks[2].Store(own | 1<<1)
	th := NewThread("kernel", 5, 1, nil)
	if !th.Validate(log, locks, own, set) {
		t.Fatal("Validate failed logged words and an own lock that replaced its logged word")
	}
	for _, c := range []struct {
		name string
		w    uint64
	}{
		{"a newer version", 9 << 1},
		{"a foreign lock", Owner(6) | 1<<1},
		{"an own lock that replaced another word", own | 0<<1},
	} {
		locks[1].Store(c.w)
		if th.Validate(log, locks, own, set) {
			t.Errorf("Validate passed stripe 1 logged at %#x under %s (%#x)", 1<<1, c.name, c.w)
		}
	}
	locks[1].Store(1 << 1)
	locks[2].Store(Owner(6) | 1<<1) // thread 6's word naming the index of this owner's entry for stripe 2
	if th.Validate(log, locks, own, set) {
		t.Error("Validate passed a foreign lock by this owner's lock-set entry")
	}
	if st := th.Stats(); st.Validations != 5 || st.ValidationReads != 5*uint64(len(log)) {
		t.Errorf("Validations %d, ValidationReads %d; want 5, %d", st.Validations, st.ValidationReads, 5*len(log))
	}
	Release(locks, set)
	for i := range locks[2:] {
		if w := locks[2+i].Load(); w != uint64(2+i)<<1 {
			t.Errorf("stripe %d released at %#x, want its replaced word %#x", 2+i, w, uint64(2+i)<<1)
		}
	}
}
