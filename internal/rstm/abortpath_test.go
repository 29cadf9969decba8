package rstm

import (
	"sync"
	"testing"

	"swisstm/internal/cm"
	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
)

// TestAbortPath runs the two-tier abort-delivery conformance suite
// (DESIGN.md §8) on both acquire modes with invisible reads: commit-time
// epoch-validation failures and lazy acquisition conflicts must return
// through the checked path; conflicts surfacing inside ReadField/
// WriteField and Restart keep unwinding.
func TestAbortPath(t *testing.T) {
	for _, acq := range []AcquireMode{Eager, Lazy} {
		t.Run(acq.String(), func(t *testing.T) {
			mk := func() stm.STM {
				return New(Config{Acquire: acq, Manager: cm.NewSerializer()})
			}
			stmtest.AbortPathSuite(t, mk, stmtest.ShapeObjectValidation)
		})
	}
}

// TestLazyAcquireAbortReturns pins the checked path for the conflict
// class ShapeObjectValidation cannot reach deterministically: a lazy
// writer whose buffered clone goes stale before commit. The victim
// buffers a write (no acquisition), a full conflicting writer commits a
// newer version mid-body, and the victim's commit-time acquisition must
// fail with LockAcquireFail — delivered as a checked return, never
// across a recover.
func TestLazyAcquireAbortReturns(t *testing.T) {
	e := New(Config{Acquire: Lazy, Manager: cm.NewSerializer()})
	thA := e.NewThread(1)
	thB := e.NewThread(2)
	var h stm.Handle
	stm.AtomicVoid(thA, func(tx stm.Tx) { h = tx.NewObject(1) })
	const forced = 50
	for i := 0; i < forced; i++ {
		attempt := 0
		stm.AtomicVoid(thA, func(tx stm.Tx) {
			attempt++
			if attempt > 1 {
				return
			}
			tx.WriteField(h, 0, stm.Word(i)) // buffered lazily, not acquired
			stm.AtomicVoid(thB, func(txb stm.Tx) { txb.WriteField(h, 0, stm.Word(i)+100) })
		})
	}
	s := thA.Stats()
	if s.LockAcquireFail < forced {
		t.Fatalf("LockAcquireFail = %d, want ≥ %d (stale lazy clone must fail commit-time acquisition)",
			s.LockAcquireFail, forced)
	}
	if s.AbortsUnwound != 0 || s.AbortsReturned != s.Aborts {
		t.Errorf("lazy acquisition aborts: unwound %d returned %d of %d, want all returned",
			s.AbortsUnwound, s.AbortsReturned, s.Aborts)
	}
}

// TestReaderBitmapLifecycle checks the visible-reader bitmap directly:
// a visible read sets exactly the reader's thread bit, the bit survives
// for the duration of the transaction, and commit/abort clears it.
func TestReaderBitmapLifecycle(t *testing.T) {
	e := New(Config{Reads: Visible, Manager: cm.NewSerializer()})
	th := e.NewThread(5)
	var h stm.Handle
	stm.AtomicVoid(th, func(tx stm.Tx) { h = tx.NewObject(1) })
	o := e.object(h)
	stm.AtomicVoid(th, func(tx stm.Tx) {
		_ = tx.ReadField(h, 0)
		if got := o.readers.Load(); got != 1<<5 {
			t.Errorf("mid-transaction bitmap = %#x, want bit 5 only", got)
		}
		_ = tx.ReadField(h, 0) // re-read: registration must be idempotent
		if got := o.readers.Load(); got != 1<<5 {
			t.Errorf("after re-read bitmap = %#x, want bit 5 only", got)
		}
	})
	if got := o.readers.Load(); got != 0 {
		t.Errorf("post-commit bitmap = %#x, want 0", got)
	}
}

// TestWriterKillsVisibleReader: an acquiring writer must observe the
// reader's bit, resolve it through the engine's visible table and abort
// the reader — the eager read/write detection visible mode exists for.
// The reader's next access unwinds (mid-body kill), it retries, and its
// bit is gone afterwards.
func TestWriterKillsVisibleReader(t *testing.T) {
	e := New(Config{Reads: Visible, Manager: cm.NewGreedy()})
	thR := e.NewThread(1)
	thW := e.NewThread(2)
	var h stm.Handle
	stm.AtomicVoid(thR, func(tx stm.Tx) { h = tx.NewObject(1) })
	attempts := 0
	var got stm.Word
	stm.AtomicVoid(thR, func(tx stm.Tx) {
		attempts++
		_ = tx.ReadField(h, 0)
		if attempts == 1 {
			// A full writer transaction lands while we hold a visible
			// read; its afterAcquire must kill us via the bitmap.
			stm.AtomicVoid(thW, func(txw stm.Tx) { txw.WriteField(h, 0, 42) })
		}
		got = tx.ReadField(h, 0)
	})
	if attempts < 2 {
		t.Fatalf("reader ran %d attempts, want ≥ 2 (writer must have killed attempt 1)", attempts)
	}
	if got != 42 {
		t.Fatalf("reader finally saw %d, want the writer's 42", got)
	}
	s := thR.Stats()
	if s.AbortsKilled == 0 {
		t.Errorf("reader stats record no CM kill: %+v", s)
	}
	if bm := e.object(h).readers.Load(); bm != 0 {
		t.Errorf("bitmap after both transactions = %#x, want 0", bm)
	}
}

// TestVisibleReadersAllThreads registers visible readers from many
// threads at once — well past the 16 slots of the per-object table the
// bitmap replaced — and checks nobody is spuriously rejected and the
// bitmap drains to zero.
func TestVisibleReadersAllThreads(t *testing.T) {
	e := New(Config{Reads: Visible, Manager: cm.NewSerializer()})
	th0 := e.NewThread(0)
	var h stm.Handle
	stm.AtomicVoid(th0, func(tx stm.Tx) { h = tx.NewObject(1) })
	const readers = 32 // > the old visSlots=16 hard cap
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			for n := 0; n < 200; n++ {
				stm.AtomicVoid(th, func(tx stm.Tx) { _ = tx.ReadField(h, 0) })
			}
		}(i)
	}
	wg.Wait()
	if bm := e.object(h).readers.Load(); bm != 0 {
		t.Errorf("bitmap after all readers finished = %#x, want 0", bm)
	}
}
