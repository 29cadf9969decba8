package tinystm

import (
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

func TestEagerAcquireLocksAtEncounter(t *testing.T) {
	// The distinctive TinySTM behaviour: a store takes the stripe lock
	// immediately, in the middle of the transaction body.
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th := e.NewThread(0)
	var base stm.Addr
	stm.AtomicVoid(th, func(tx stm.Tx) { base = tx.AllocWords(1) })
	stm.AtomicVoid(th, func(tx stm.Tx) {
		tx.Store(base, 5)
		if e.owners[e.Stripe(base)].Load() == 0 {
			t.Fatal("eager engine did not lock the stripe at encounter time")
		}
	})
	// And releases it at commit.
	if e.owners[e.Stripe(base)].Load() != 0 {
		t.Fatal("stripe lock leaked past commit")
	}
}

func TestTimestampExtension(t *testing.T) {
	// A transaction reading a location updated after its start must be
	// able to extend (no intervening conflicting writes) and commit.
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th0 := e.NewThread(0)
	th1 := e.NewThread(1)
	var a, b stm.Addr
	stm.AtomicVoid(th0, func(tx stm.Tx) {
		a = tx.AllocWords(1)
		b = tx.AllocWords(64) // separate stripe region
	})
	aborted := false
	stm.AtomicVoid(th0, func(tx stm.Tx) {
		_ = tx.Load(a)
		// Another thread commits to an unrelated stripe, advancing the
		// clock past our snapshot.
		stm.AtomicVoid(th1, func(tx2 stm.Tx) { tx2.Store(b+32, 1) })
		// Reading the updated location forces an extension, which must
		// succeed since our read set (only a) is untouched.
		_ = tx.Load(b + 32)
	})
	if aborted {
		t.Fatal("extension should have succeeded")
	}
	if s := th0.Stats(); s.AbortsValid != 0 {
		t.Fatalf("validation aborts = %d, want 0", s.AbortsValid)
	}
}

// TestTransferExtend: contended transfers whose snapshot is forced
// forward mid-body must not lose an update.
func TestTransferExtend(t *testing.T) { stmtest.TransferExtend(t, newEngine()) }
