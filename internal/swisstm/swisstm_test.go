package swisstm

import (
	"sync"
	"testing"

	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
)

func newEngine() stm.STM {
	return New(Config{ArenaWords: 1 << 16, TableBits: 12})
}

func TestConformance(t *testing.T) {
	stmtest.Run(t, newEngine, stmtest.Options{WordAPI: true})
}

func TestConformanceTimidCM(t *testing.T) {
	stmtest.Run(t, func() stm.STM {
		return New(Config{ArenaWords: 1 << 16, TableBits: 12, Policy: Timid})
	}, stmtest.Options{WordAPI: true})
}

func TestConformanceGreedyCM(t *testing.T) {
	stmtest.Run(t, func() stm.STM {
		return New(Config{ArenaWords: 1 << 16, TableBits: 12, Policy: Greedy})
	}, stmtest.Options{WordAPI: true})
}

func TestConformanceNoBackoff(t *testing.T) {
	stmtest.Run(t, func() stm.STM {
		return New(Config{ArenaWords: 1 << 16, TableBits: 12, NoBackoff: true})
	}, stmtest.Options{WordAPI: true})
}

func TestConformanceGranularities(t *testing.T) {
	for _, g := range []uint{0, 2, 6} {
		g := g
		t.Run(map[uint]string{0: "1word", 2: "4words", 6: "64words"}[g], func(t *testing.T) {
			stmtest.Run(t, func() stm.STM {
				return New(Config{ArenaWords: 1 << 16, TableBits: 10, StripeWords: 1 << g})
			}, stmtest.Options{WordAPI: true})
		})
	}
}

func TestStripeMapping(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 10, TableBits: 8, StripeWords: 4})
	// Four consecutive words share a stripe; the fifth does not (Figure 1).
	if e.Stripe(0) != e.Stripe(3) {
		t.Fatalf("words 0 and 3 should share a stripe")
	}
	if e.Stripe(3) == e.Stripe(4) {
		t.Fatalf("words 3 and 4 should be in different stripes")
	}
	if e.StripeBase(7) != 4 {
		t.Fatalf("stripeBase(7) = %d, want 4", e.StripeBase(7))
	}
	// Mapping wraps modulo the table size rather than overflowing.
	big := stm.Addr(1<<9 - 1)
	if int(e.Stripe(big)) >= 1<<8 {
		t.Fatalf("stripe index out of table range")
	}
}

func TestFalseConflictSameStripe(t *testing.T) {
	// Two words in the same stripe conflict (false conflict, §3.3): both
	// transactions must still execute correctly, one after the other.
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8, StripeWords: 4})
	th0 := e.NewThread(0)
	var base stm.Handle
	stm.AtomicVoid(th0, func(tx stm.Tx) { base = tx.NewObject(4) })
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			for n := 0; n < 2000; n++ {
				stm.AtomicVoid(th, func(tx stm.Tx) {
					f := uint32(id) // distinct words, same stripe
					tx.WriteField(base, f, tx.ReadField(base, f)+1)
				})
			}
		}(i)
	}
	wg.Wait()
	stm.AtomicVoid(th0, func(tx stm.Tx) {
		if got := tx.ReadField(base, 0); got != 2000 {
			t.Errorf("word 0: got %d, want 2000", got)
		}
		if got := tx.ReadField(base, 1); got != 2000 {
			t.Errorf("word 1: got %d, want 2000", got)
		}
	})
}

func TestTwoPhasePromotion(t *testing.T) {
	// A transaction that performs wn (10) writes must enter phase two
	// (acquire a finite Greedy timestamp); one with wn-1 writes must not.
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th := e.NewThread(0).(*txn)
	var base stm.Handle
	stm.AtomicVoid(th, func(tx stm.Tx) { base = tx.NewObject(8 * wn) })

	stm.AtomicVoid(th, func(tx stm.Tx) {
		for i := uint32(0); i < wn-1; i++ {
			tx.WriteField(base, i*8, 1) // distinct stripes at default granularity
		}
		if th.cmTS.Load() != infinity {
			t.Errorf("phase-two entered after %d writes", wn-1)
		}
	})
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for i := uint32(0); i < wn; i++ {
			tx.WriteField(base, i*8, 1)
		}
		if th.cmTS.Load() == infinity {
			t.Errorf("still phase-one after %d writes", wn)
		}
	})
	// A fresh (non-restart) transaction resets to phase one.
	stm.AtomicVoid(th, func(tx stm.Tx) {
		if th.cmTS.Load() != infinity {
			t.Errorf("cm-ts not reset at fresh start")
		}
	})
}

func TestKilledVictimRetries(t *testing.T) {
	// A long phase-two transaction must win against short phase-two
	// transactions that started later, and everything must still commit.
	// Each transaction writes 16 stripes, so it reaches phase two at its
	// wn-th.
	e := New(Config{ArenaWords: 1 << 14, TableBits: 10})
	th0 := e.NewThread(0)
	var base stm.Handle
	stm.AtomicVoid(th0, func(tx stm.Tx) { base = tx.NewObject(256) })
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			for n := 0; n < 300; n++ {
				stm.AtomicVoid(th, func(tx stm.Tx) {
					// Touch a window of stripes so transactions overlap.
					for k := uint32(0); k < 16; k++ {
						f := (uint32(n) + k*4) % 256
						tx.WriteField(base, f, tx.ReadField(base, f)+1)
					}
				})
			}
		}(i)
	}
	wg.Wait()
	var sum stm.Word
	stm.AtomicVoid(th0, func(tx stm.Tx) {
		for i := uint32(0); i < 256; i++ {
			sum += tx.ReadField(base, i)
		}
	})
	if sum != 3*300*16 {
		t.Fatalf("sum = %d, want %d", sum, 3*300*16)
	}
}

func TestStatsCounting(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th := e.NewThread(0)
	var h stm.Handle
	stm.AtomicVoid(th, func(tx stm.Tx) { h = tx.NewObject(1) })
	for i := 0; i < 10; i++ {
		stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, 0, stm.Word(i)) })
	}
	s := th.Stats()
	if s.Commits != 11 {
		t.Fatalf("commits = %d, want 11", s.Commits)
	}
	if s.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0 (single thread)", s.Aborts)
	}
}

func TestForeignPanicReleasesLocks(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th := e.NewThread(0)
	var base stm.Handle
	stm.AtomicVoid(th, func(tx stm.Tx) { base = tx.NewObject(256) })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for i := stm.Addr(0); i < 12; i++ {
				tx.WriteField(base, i*16, 1)
			}
			panic("user bug")
		})
	}()
	// Every write lock must have been released: no lock word is left set,
	// and another thread can write.
	for i := range e.locks {
		if w := e.locks[i].w.Load(); w != 0 {
			t.Fatalf("w-lock %d = %#x after a foreign panic, want 0", i, w)
		}
	}
	th2 := e.NewThread(1)
	done := make(chan struct{})
	go func() {
		stm.AtomicVoid(th2, func(tx stm.Tx) { tx.WriteField(base, 0, 2) })
		close(done)
	}()
	<-done
	if got := e.Arena().Words()[base].Load(); got != 2 {
		t.Fatalf("arena value = %d, want 2", got)
	}
}

// TestTransferExtend: contended transfers whose snapshot is forced
// forward mid-body must not lose an update.
func TestTransferExtend(t *testing.T) { stmtest.TransferExtend(t, newEngine()) }
