package stmtest

import (
	"errors"
	"sync"
	"testing"
	"time"

	"swisstm/internal/stm"
)

// AbortShape selects which deterministic commit-time conflict a
// ForcedAbort injects. Each engine detects a different conflict class on
// its commit path, so the shape must match the engine under test.
type AbortShape int

const (
	// ShapeReadValidation: read stripe S, inject a foreign commit that
	// bumps S, write a private stripe, commit → the commit-time read-set
	// validation fails. Matches the time-based eager engines (SwissTM,
	// TinySTM), whose only commit-detected conflict is validation.
	ShapeReadValidation AbortShape = iota
	// ShapeLockAcquire: buffer a lazy write to S, inject a foreign commit
	// that bumps S, commit → the versioned-lock acquisition finds S newer
	// than the snapshot and fails. Matches TL2, whose lazy design defers
	// every write conflict to commit.
	ShapeLockAcquire
	// ShapeObjectValidation: read object O invisibly, inject a foreign
	// commit that updates O, finish read-only → the commit-time epoch
	// validation fails. Matches RSTM with invisible reads.
	ShapeObjectValidation
)

// ForcedAbort drives exactly one engine-initiated, commit-time abort per
// Op call, deterministically: the victim transaction (thread A) performs
// its accesses, then — still inside its own body — runs a complete
// conflicting transaction on a second engine thread (B), and commits
// into the conflict. Both threads run on the calling goroutine, which is
// legal (Thread forbids concurrent use, not interleaved use from one
// goroutine) and makes the conflict schedule exact rather than
// probabilistic: no cross-goroutine coordination, no flaky sleeps.
//
// The victim's second attempt runs an empty body and commits read-only,
// so every Op is one aborted attempt plus one trivial retry plus one
// injector commit. All bodies are pre-bound: the steady-state Op loop
// performs no allocation of its own (RSTM's injector commit still pays
// the engine's inherent per-update clone/locator allocations).
//
// It uses engine thread ids stm.MaxThreads-1 and stm.MaxThreads-2.
type ForcedAbort struct {
	thA, thB stm.Thread
	attempt  int
	v        stm.Word
	s, p     stm.Handle // shared and private stripes (one-field objects)
	body     func(stm.Tx)
	bump     func(stm.Tx)
}

// NewForcedAbort builds the conflict driver on a fresh engine. The
// engine should disable (or minimize) post-abort back-off when Op is
// used for timing, so the measured cost is the abort path itself.
func NewForcedAbort(e stm.STM, shape AbortShape) *ForcedAbort {
	fa := &ForcedAbort{
		thA: e.NewThread(stm.MaxThreads - 1),
		thB: e.NewThread(stm.MaxThreads - 2),
	}
	switch shape {
	case ShapeReadValidation:
		stm.AtomicVoid(fa.thA, func(tx stm.Tx) {
			fa.s = tx.NewObject(1)
			_ = tx.NewObject(64) // keep s and p on distinct stripes at any granularity ≤ 64
			fa.p = tx.NewObject(1)
			tx.WriteField(fa.s, 0, 1)
			tx.WriteField(fa.p, 0, 1)
		})
		fa.bump = func(tx stm.Tx) { fa.v++; tx.WriteField(fa.s, 0, fa.v) }
		fa.body = func(tx stm.Tx) {
			fa.attempt++
			if fa.attempt > 1 {
				return // clean retry: empty read-only commit
			}
			_ = tx.ReadField(fa.s, 0)
			stm.AtomicVoid(fa.thB, fa.bump) // S moves past the victim's snapshot
			tx.WriteField(fa.p, 0, fa.v)    // make the victim an updater so commit validates
		}
	case ShapeLockAcquire:
		stm.AtomicVoid(fa.thA, func(tx stm.Tx) {
			fa.s = tx.NewObject(1)
			tx.WriteField(fa.s, 0, 1)
		})
		fa.bump = func(tx stm.Tx) { fa.v++; tx.WriteField(fa.s, 0, fa.v) }
		fa.body = func(tx stm.Tx) {
			fa.attempt++
			if fa.attempt > 1 {
				return
			}
			tx.WriteField(fa.s, 0, 0)       // buffered lazily; no lock taken
			stm.AtomicVoid(fa.thB, fa.bump) // S's versioned lock moves past the snapshot
		}
	case ShapeObjectValidation:
		stm.AtomicVoid(fa.thA, func(tx stm.Tx) {
			fa.s = tx.NewObject(2)
			tx.WriteField(fa.s, 0, 1)
		})
		fa.bump = func(tx stm.Tx) { fa.v++; tx.WriteField(fa.s, 0, fa.v) }
		fa.body = func(tx stm.Tx) {
			fa.attempt++
			if fa.attempt > 1 {
				return
			}
			_ = tx.ReadField(fa.s, 0)
			stm.AtomicVoid(fa.thB, fa.bump) // O's committed version moves
		}
	default:
		panic("stmtest: unknown AbortShape")
	}
	return fa
}

// Op runs one forced-abort cycle.
func (fa *ForcedAbort) Op() {
	fa.attempt = 0
	stm.AtomicVoid(fa.thA, fa.body)
}

// Stats returns the victim thread's counters.
func (fa *ForcedAbort) Stats() stm.Stats { return fa.thA.Stats() }

// AbortPathSuite is the conformance suite for the two-tier abort path of
// DESIGN.md §8, run against every engine:
//
//   - engine-initiated commit-time aborts are delivered as checked
//     returns — they never cross a panic/recover (asserted via the
//     AbortsUnwound/AbortsReturned stats split, which attempt/recover
//     and the commit path maintain);
//   - a panic raised by user code inside Atomic propagates unchanged,
//     and the engine releases its locks first (a later transaction on
//     the panicking stripe must not wedge);
//   - Restart() still retries, delivered by unwinding;
//   - the split exactly partitions Aborts.
//
// factory must return a fresh engine per call.
func AbortPathSuite(t *testing.T, factory func() stm.STM, shape AbortShape) {
	const forced = 50

	t.Run("CommitAbortsReturn", func(t *testing.T) {
		fa := NewForcedAbort(factory(), shape)
		for i := 0; i < forced; i++ {
			fa.Op()
		}
		s := fa.Stats()
		if s.Aborts < forced {
			t.Fatalf("forced-conflict driver aborted %d times, want ≥ %d (shape mismatch?)", s.Aborts, forced)
		}
		if s.AbortsUnwound != 0 {
			t.Errorf("%d aborts crossed panic/recover on the commit path, want 0 (returned %d)",
				s.AbortsUnwound, s.AbortsReturned)
		}
		if s.AbortsReturned != s.Aborts {
			t.Errorf("AbortsReturned = %d, want all %d aborts on the checked path", s.AbortsReturned, s.Aborts)
		}
	})

	t.Run("UserPanicPropagates", func(t *testing.T) {
		e := factory()
		th := e.NewThread(0)
		h := alloc(th, 1)
		boom := errors.New("user bug")
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Fatalf("recovered %v, want the user panic value", r)
				}
			}()
			stm.AtomicVoid(th, func(tx stm.Tx) {
				tx.WriteField(h, 0, 7) // take the write lock, then blow up
				panic(boom)
			})
		}()
		// The lock must have been released on the way out: a second thread
		// writing the same object would otherwise wedge. Guard with a
		// timeout so a regression fails instead of hanging the suite.
		done := make(chan struct{})
		go func() {
			th2 := e.NewThread(1)
			stm.AtomicVoid(th2, func(tx stm.Tx) { tx.WriteField(h, 0, 8) })
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("write after user panic wedged: engine leaked its lock")
		}
		got := readField(th, h, 0)
		if got != 8 {
			t.Fatalf("object holds %d, want 8 (panicked write must not commit)", got)
		}
	})

	t.Run("RestartRetries", func(t *testing.T) {
		e := factory()
		th := e.NewThread(0)
		h := alloc(th, 1)
		tries := 0
		stm.AtomicVoid(th, func(tx stm.Tx) {
			tries++
			tx.WriteField(h, 0, stm.Word(tries))
			if tries < 3 {
				tx.Restart()
			}
		})
		if tries != 3 {
			t.Fatalf("body ran %d times, want 3", tries)
		}
		got := readField(th, h, 0)
		if got != 3 {
			t.Fatalf("committed %d, want 3 (only the non-restarted attempt)", got)
		}
		s := th.Stats()
		if s.AbortsExplicit != 2 {
			t.Errorf("AbortsExplicit = %d, want 2", s.AbortsExplicit)
		}
		if s.AbortsUnwound < 2 {
			t.Errorf("AbortsUnwound = %d, want ≥ 2 (Restart must unwind the closure)", s.AbortsUnwound)
		}
	})

	t.Run("StatsPartition", func(t *testing.T) {
		e := factory()
		th0 := e.NewThread(0)
		h := alloc(th0, 1)
		// Hammer one counter from several goroutines so both mid-body and
		// commit-time conflicts occur, then check the partition invariant
		// on every thread.
		stats := runCounterHammer(e, h, 4, 2000)
		for i, s := range stats {
			if s.Aborts != s.AbortsUnwound+s.AbortsReturned {
				t.Errorf("thread %d: Aborts=%d ≠ Unwound+Returned=%d+%d",
					i, s.Aborts, s.AbortsUnwound, s.AbortsReturned)
			}
		}
	})
}

// runCounterHammer increments one shared field from workers goroutines
// and returns each worker's final stats.
func runCounterHammer(e stm.STM, h stm.Handle, workers, perWorker int) []stm.Stats {
	stats := make([]stm.Stats, workers)
	done := make(chan struct{})
	for i := 0; i < workers; i++ {
		go func(id int) {
			defer func() { done <- struct{}{} }()
			th := e.NewThread(id + 1)
			for n := 0; n < perWorker; n++ {
				stm.AtomicVoid(th, func(tx stm.Tx) {
					tx.WriteField(h, 0, tx.ReadField(h, 0)+1)
				})
			}
			stats[id] = th.Stats()
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	return stats
}

// TransferExtend hammers four-account transfers whose snapshot is forced
// forward mid-body, from four goroutines, and checks the total. Each
// transfer reads all four balances before it writes any; between the
// second and third read its first attempt runs a complete foreign commit
// (a second engine thread on the same goroutine, ForcedAbort style) that
// rewrites the fourth account in place, so that read meets a version
// newer than the snapshot. The time-based engines must then revalidate their read log
// while the other workers are committing to those very accounts — the
// window in which TinySTM's validation once accepted a stale entry and
// lost an update — and the others abort and retry unforced.
//
// It uses engine thread ids 0..4 and stm.MaxThreads-4..stm.MaxThreads-1.
func TransferExtend(t *testing.T, e stm.STM) {
	const threads = 4
	const accounts = 16
	const initial = 1 << 20
	// A million transfers: the parent of the fix lost about one update
	// per 1.6 million of these, so a regression fails more runs than not.
	perThread := 250000
	if testing.Short() || raceEnabled {
		perThread = 10000
	}
	th0 := e.NewThread(0)
	// One 64-field object per account: distinct stripes at any
	// granularity ≤ 64 words, distinct objects on RSTM.
	hs := make([]stm.Handle, accounts)
	for i := range hs {
		hs[i] = alloc(th0, 64)
		h := hs[i]
		stm.AtomicVoid(th0, func(tx stm.Tx) { tx.WriteField(h, 0, initial) })
	}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			bumper := e.NewThread(stm.MaxThreads - 1 - id)
			seed := uint64(id)*2654435761 + 977
			for n := 0; n < perThread; n++ {
				seed = seed*6364136223846793005 + 1
				base, stride := uint32(seed>>33), uint32(seed>>13)|1 // odd stride: four distinct accounts
				var k [4]stm.Handle
				for j := range k {
					k[j] = hs[(base+uint32(j)*stride)%accounts]
				}
				attempt := 0
				stm.AtomicVoid(th, func(tx stm.Tx) {
					attempt++
					var bal [4]stm.Word
					bal[0] = tx.ReadField(k[0], 0)
					bal[1] = tx.ReadField(k[1], 0)
					if attempt == 1 {
						stm.AtomicVoid(bumper, func(btx stm.Tx) {
							btx.WriteField(k[3], 0, btx.ReadField(k[3], 0))
						})
					}
					bal[2] = tx.ReadField(k[2], 0)
					bal[3] = tx.ReadField(k[3], 0)
					tx.WriteField(k[0], 0, bal[0]-3)
					for j := 1; j < 4; j++ {
						tx.WriteField(k[j], 0, bal[j]+1)
					}
				})
			}
		}(i)
	}
	wg.Wait()
	sum := stm.AtomicRO(th0, func(tx stm.TxRO) stm.Word {
		var sum stm.Word
		for _, h := range hs {
			sum += tx.ReadField(h, 0)
		}
		return sum
	})
	if sum != accounts*initial {
		t.Fatalf("sum = %d after %d transfers, want %d: an update was lost", sum, threads*perThread, accounts*initial)
	}
}
