package tinystm

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"swisstm/internal/stm"
	"swisstm/internal/stm/kernel"
	"swisstm/internal/stm/stmtest"
)

func newDedupEngine() *Engine {
	return New(Config{ArenaWords: 1 << 12, TableBits: 8, StripeWords: 4})
}

// TestDedupLogsStripeOnce: re-reading a stripe — same word or sibling
// words — must append exactly one read-log entry.
func TestDedupLogsStripeOnce(t *testing.T) {
	e := newDedupEngine()
	th := e.NewThread(0)
	tx0 := th.(*txn)
	base := stm.Handle(e.Arena().Alloc(8)) // spans two 4-word stripes
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for rep := 0; rep < 10; rep++ {
			tx.ReadField(base, 0) // stripe A
			tx.ReadField(base, 1) // stripe A again (sibling word)
			tx.ReadField(base, 4) // stripe B
		}
		if got := len(tx0.rs.Log); got != 2 {
			t.Errorf("read log has %d entries, want 2 (one per distinct stripe)", got)
		}
	})
	s := th.Stats()
	if s.ReadsLogged != 2 {
		t.Errorf("ReadsLogged = %d, want 2", s.ReadsLogged)
	}
	if s.ReadsDeduped != 28 {
		t.Errorf("ReadsDeduped = %d, want 28 (30 reads, 2 logged)", s.ReadsDeduped)
	}
}

// TestDedupDoesNotMaskConflict: a conflicting commit between the first
// and second read of one stripe must still abort the reader; the dedup
// hit may only be taken when the observed version is the logged one, which
// load decides by "version ≤ validTS" (DESIGN.md §7.1); taking every set
// bit for a hit fails here.
func TestDedupDoesNotMaskConflict(t *testing.T) {
	e := newDedupEngine()
	thA := e.NewThread(0)
	thB := e.NewThread(1)
	addr := stm.Handle(e.Arena().Alloc(1))
	e.Arena().Words()[addr].Store(1)

	attempts := 0
	var first, second stm.Word
	stm.AtomicVoid(thA, func(tx stm.Tx) {
		attempts++
		first = tx.ReadField(addr, 0)
		if attempts == 1 {
			stm.AtomicVoid(thB, func(txB stm.Tx) { txB.WriteField(addr, 0, 2) })
		}
		second = tx.ReadField(addr, 0)
	})
	if attempts != 2 {
		t.Fatalf("transaction ran %d attempts, want 2 (abort + clean retry)", attempts)
	}
	if first != second || first != 2 {
		t.Fatalf("committed attempt saw %d then %d, want consistent 2", first, second)
	}
	if s := thA.Stats(); s.AbortsValidRead != 1 {
		t.Errorf("expected the injected conflict to count as one read-time validation abort, got %+v", s)
	}
}

// TestDedupOpacityUnderContention re-reads two invariant-linked words
// from several threads while writers update them, under -race; the dedup
// cache must never let re-reads disagree or the invariant appear broken.
func TestDedupOpacityUnderContention(t *testing.T) {
	e := newDedupEngine()
	setup := e.NewThread(0)
	x := stm.Handle(e.Arena().Alloc(1))
	y := stm.Handle(e.Arena().Alloc(5)) // a different stripe than x
	stm.AtomicVoid(setup, func(tx stm.Tx) {
		tx.WriteField(x, 0, 0)
		tx.WriteField(y, 0, 0)
	})

	const workers = 4
	const txns = 2000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			for i := 0; i < txns; i++ {
				if id%2 == 0 {
					stm.AtomicVoid(th, func(tx stm.Tx) {
						v := tx.ReadField(x, 0)
						tx.WriteField(x, 0, v+1)
						tx.WriteField(y, 0, v+1)
					})
					continue
				}
				var bad string
				stm.AtomicVoid(th, func(tx stm.Tx) {
					bad = ""
					a1, b1 := tx.ReadField(x, 0), tx.ReadField(y, 0)
					a2, b2 := tx.ReadField(x, 0), tx.ReadField(y, 0) // dedup hits
					if a1 != a2 || b1 != b2 {
						bad = "re-read disagreed with first read"
					} else if a1 != b1 {
						bad = "invariant x == y violated inside a transaction"
					}
				})
				if bad != "" {
					select {
					case errs <- bad:
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// readSetProbe opens th's descriptor to the shared read-set tests.
func readSetProbe(th stm.Thread) stmtest.ReadSetProbe {
	d := th.(*txn)
	setBits := func() int {
		n := 0
		for _, w := range d.rs.Seen {
			n += bits.OnesCount64(w)
		}
		return n
	}
	return stmtest.ReadSetProbe{
		LogLen:  func() int { return len(d.rs.Log) },
		SetBits: setBits,
		Sweep: func() error {
			logged := make(map[uint32]bool, len(d.rs.Log))
			for _, re := range d.rs.Log {
				if logged[re.Idx] {
					return fmt.Errorf("stripe %d logged twice", re.Idx)
				}
				logged[re.Idx] = true
				if re.Ver>>1 > d.validTS {
					return fmt.Errorf("(I) stripe %d logged at version %d > validTS %d", re.Idx, re.Ver>>1, d.validTS)
				}
				// The lock word, as validate reads it; a foreign lock says
				// nothing about the version.
				w := d.e.locks[re.Idx].Load()
				if idx, mine := kernel.Owns(w, d.own); mine {
					w = d.set[idx].Ver
				}
				if w&1 != 0 {
					continue
				}
				if cur := w >> 1; cur <= d.validTS && w != re.Ver {
					return fmt.Errorf("(II) stripe %d logged at version %d now reads %d, both within validTS %d", re.Idx, re.Ver>>1, cur, d.validTS)
				}
			}
			if n := setBits(); n != len(d.rs.Log) {
				return fmt.Errorf("%d bits set for %d log entries", n, len(d.rs.Log))
			}
			return nil
		},
	}
}

// TestDedupNoStaleBits: no way of ending an attempt leaves a bit set for
// the next one (stmtest.DedupNoStaleBits).
func TestDedupNoStaleBits(t *testing.T) {
	stmtest.DedupNoStaleBits(t, func(tableBits uint) stm.STM {
		return New(Config{ArenaWords: 1 << 15, TableBits: tableBits, StripeWords: 4})
	}, readSetProbe)
}

// TestDedupExtendThenConflict: a re-read after a timestamp extension is a
// hit, a re-read after a conflicting commit is an abort.
func TestDedupExtendThenConflict(t *testing.T) {
	stmtest.DedupExtendThenConflict(t, newDedupEngine())
}

// TestDedupSnapshotInvariant: the invariant the dedup fast path rests on
// holds at every point inside a transaction, under concurrent commits.
func TestDedupSnapshotInvariant(t *testing.T) {
	stmtest.DedupSnapshotInvariant(t, newDedupEngine(), readSetProbe)
}
