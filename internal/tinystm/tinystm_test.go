package tinystm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	var base stm.Handle
	stm.AtomicVoid(th, func(tx stm.Tx) { base = tx.NewObject(1) })
	l := &e.locks[e.Stripe(stm.Addr(base))]
	before := l.Load()
	stm.AtomicVoid(th, func(tx stm.Tx) {
		tx.WriteField(base, 0, 5)
		if l.Load()&1 == 0 {
			t.Fatal("eager engine did not lock the stripe at encounter time")
		}
	})
	// And releases it at commit, publishing a newer version.
	if w := l.Load(); w&1 != 0 || w <= before {
		t.Fatalf("lock word after commit = %#x, want free and newer than %#x", w, before)
	}
}

// TestAbortRestoresWord: an attempt that locked a stripe and ended without
// committing — its body returned an error, or a foreign panic unwound it —
// hands the stripe back with the lock word it replaced, bit for bit.
func TestAbortRestoresWord(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th := e.NewThread(0)
	a := stm.Handle(e.Arena().Alloc(1))
	stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(a, 0, 1) }) // a version above 0
	l := &e.locks[e.Stripe(stm.Addr(a))]
	before := l.Load()
	check := func(how string) {
		t.Helper()
		if w := l.Load(); w != before {
			t.Errorf("%s: lock word = %#x, want %#x as before the store", how, w, before)
		}
		if v := e.Arena().Words()[a].Load(); v != 1 {
			t.Errorf("%s: word = %d, want 1", how, v)
		}
	}
	stop := errors.New("stop")
	if _, err := stm.AtomicErr(th, func(tx stm.Tx) (int, error) {
		tx.WriteField(a, 0, 2)
		return 0, stop
	}); err != stop {
		t.Fatalf("AtomicErr = %v, want %v", err, stop)
	}
	check("AbortUser")
	func() {
		defer func() {
			if r := recover(); r != "foreign" {
				t.Fatalf("recovered %v, want the foreign panic", r)
			}
		}()
		stm.AtomicVoid(th, func(tx stm.Tx) {
			tx.WriteField(a, 0, 3)
			panic("foreign")
		})
	}()
	check("Unwind")
}

// TestStoreGuard: the opacity guard of a store extends the snapshot only
// when the stripe it locks has moved past it, judged by the version its
// CAS replaced; an extension over a moved read is an abort.
func TestStoreGuard(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th0, th1 := e.NewThread(0), e.NewThread(1)
	x, y := stm.Handle(e.Arena().Alloc(64)), stm.Handle(e.Arena().Alloc(64)) // different stripes
	bump := func(a stm.Handle) { stm.AtomicVoid(th1, func(tx stm.Tx) { tx.WriteField(a, 0, tx.ReadField(a, 0)+1) }) }
	run := func(body func(tx stm.Tx)) (attempts int, s stm.Stats) {
		before := th0.Stats()
		stm.AtomicVoid(th0, func(tx stm.Tx) { attempts++; body(tx) })
		after := th0.Stats()
		return attempts, stm.Stats{Validations: after.Validations - before.Validations,
			AbortCauses: stm.AbortCauses{AbortsValidRead: after.AbortsValidRead - before.AbortsValidRead}}
	}
	// Unmoved: no extension.
	if n, s := run(func(tx stm.Tx) { tx.ReadField(y, 0); tx.WriteField(x, 0, 1) }); n != 1 || s.Validations != 0 {
		t.Errorf("store to an unmoved stripe: %d attempts, %d validations, want 1 and 0", n, s.Validations)
	}
	// Moved, reads intact: one extension, no abort.
	if n, s := run(func(tx stm.Tx) { tx.ReadField(y, 0); bump(x); tx.WriteField(x, 0, 2) }); n != 1 || s.Validations != 1 {
		t.Errorf("store to a moved stripe: %d attempts, %d validations, want 1 and 1", n, s.Validations)
	}
	// Moved, and it was read before: the extension fails.
	first := true
	if n, s := run(func(tx stm.Tx) {
		tx.ReadField(x, 0)
		if first {
			first = false
			bump(x)
		}
		tx.WriteField(x, 0, 3)
	}); n != 2 || s.AbortsValidRead != 1 {
		t.Errorf("store to a read stripe that moved: %d attempts, %d read-time validation aborts, want 2 and 1", n, s.AbortsValidRead)
	}
}

func TestTimestampExtension(t *testing.T) {
	// A transaction reading a location updated after its start must be
	// able to extend (no intervening conflicting writes) and commit.
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th0 := e.NewThread(0)
	th1 := e.NewThread(1)
	var a, b stm.Handle
	stm.AtomicVoid(th0, func(tx stm.Tx) {
		a = tx.NewObject(1)
		b = tx.NewObject(64) // separate stripe region
	})
	stm.AtomicVoid(th0, func(tx stm.Tx) {
		_ = tx.ReadField(a, 0)
		// Another thread commits to an unrelated stripe, advancing the
		// clock past our snapshot.
		stm.AtomicVoid(th1, func(tx2 stm.Tx) { tx2.WriteField(b, 32, 1) })
		// Reading the updated location forces an extension, which must
		// succeed since our read set (only a) is untouched.
		_ = tx.ReadField(b, 32)
	})
	if s := th0.Stats(); s.AbortsValidRead+s.AbortsValidCommit != 0 {
		t.Fatalf("validation aborts = %d read-time + %d commit-time, want 0", s.AbortsValidRead, s.AbortsValidCommit)
	}
}

// TestTransferExtend: contended transfers whose snapshot is forced
// forward mid-body must not lose an update.
func TestTransferExtend(t *testing.T) { stmtest.TransferExtend(t, newEngine()) }

// TestStripeReadWhole: a read-only transaction that reads the first and
// the last word of a 64-word stripe, while a writer rewrites all 64, sees
// both from one commit. Writing back a stripe this wide takes long enough
// that a commit publishing the version before its write-back fails here
// within a few hundred reads.
func TestStripeReadWhole(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8, StripeWords: 64})
	base := stm.Handle(e.StripeBase(e.Arena().Alloc(128) + 63)) // a whole stripe
	var writes atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := e.NewThread(1)
		for {
			select {
			case <-done:
				return
			default:
			}
			stm.AtomicVoid(th, func(tx stm.Tx) {
				v := tx.ReadField(base, 0) + 1
				for i := stm.Addr(0); i < 64; i++ {
					tx.WriteField(base, i, v)
				}
			})
			writes.Add(1)
		}
	}()
	th := e.NewThread(0)
	deadline := time.Now().Add(2 * time.Second)
	reads := 0
	for ; (reads < 5000 || writes.Load() < 5000) && time.Now().Before(deadline); reads++ {
		v := stm.AtomicRO(th, func(tx stm.TxRO) [2]stm.Word { return [2]stm.Word{tx.ReadField(base, 0), tx.ReadField(base, 63)} })
		if v[0] != v[1] {
			t.Errorf("read %d: first word %d, last word %d", reads, v[0], v[1])
			break
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d read-only commits, %d writes", reads, writes.Load())
}

// TestValidateRejectsForeignOwner: a read stripe that another transaction
// has locked since fails validation, whatever version the owner found
// there: the owner may have validated already and be writing back.
func TestValidateRejectsForeignOwner(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	a, b, c := e.NewThread(0), e.NewThread(1), e.NewThread(2)
	x, y, z := stm.Handle(e.Arena().Alloc(64)), stm.Handle(e.Arena().Alloc(64)), stm.Handle(e.Arena().Alloc(64))
	tx := a.Begin(false)
	tx.ReadField(x, 0)
	b.Begin(false).WriteField(x, 0, 1)                            // b owns x's stripe
	stm.AtomicVoid(c, func(tx stm.Tx) { tx.WriteField(z, 0, 1) }) // a's commit must validate
	tx.WriteField(y, 0, 1)
	if a.Commit() {
		t.Fatal("a committed its read of a stripe b owns")
	}
	if !b.Commit() {
		t.Fatal("b's commit failed")
	}
}
