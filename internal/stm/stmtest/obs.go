package stmtest

import (
	"testing"

	"swisstm/internal/obs"
	"swisstm/internal/stm"
)

// ZeroAllocSteadyStateObs is ZeroAllocSteadyState with the engine's
// per-transaction telemetry armed: the caller builds e with an
// obs.TxnObs wired into the engine config and passes the same TxnObs
// here. On top of the 0 allocs/op bound it asserts the instrumentation
// actually ran — a commit histogram that stayed empty would mean the
// test silently measured the uninstrumented path.
func ZeroAllocSteadyStateObs(t *testing.T, e stm.STM, o *obs.TxnObs, wordAPI, updates bool) {
	t.Helper()
	ZeroAllocSteadyState(t, e, wordAPI, updates)
	m := o.Merged()
	if m.Retries.Count == 0 {
		t.Errorf("%s: obs enabled but no commits recorded — instrumented path not exercised", e.Name())
	}
	if m.ReadSet.Count != m.Retries.Count || m.WriteSet.Count != m.Retries.Count {
		t.Errorf("%s: obs histograms out of step: retries=%d readset=%d writeset=%d",
			e.Name(), m.Retries.Count, m.ReadSet.Count, m.WriteSet.Count)
	}
}

// AbortCausePartition drives every abort cause the engine can produce
// and asserts the taxonomy partition invariants of DESIGN.md §11 on
// the summed per-thread stats:
//
//	Aborts == AbortCauses.Sum()
//	Aborts == AbortsUnwound + AbortsReturned
//
// The workload mixes contended cross-thread increments (forcing
// conflict aborts of whatever flavors the engine's protocol emits),
// explicit restarts, and user errors. Run under -race via the engine
// packages' dedicated race pass.
func AbortCausePartition(t *testing.T, e stm.STM) {
	t.Helper()
	const (
		threads = 4
		iters   = 300
	)
	handles := stm.Atomic(e.NewThread(0), func(tx stm.Tx) [2]stm.Handle {
		var hs [2]stm.Handle
		for i := range hs {
			hs[i] = tx.NewObject(1)
		}
		return hs
	})

	done := make(chan stm.Stats, threads)
	for w := 0; w < threads; w++ {
		go func(worker int) {
			th := e.NewThread(worker + 1)
			for i := 0; i < iters; i++ {
				// Opposite acquisition orders across workers force
				// conflicts; the engines resolve them differently
				// (eager W/W, locked reads, commit validation, CM
				// kills) — the partition must hold regardless.
				a, b := 0, 1
				if worker%2 == 1 {
					a, b = 1, 0
				}
				stm.AtomicVoid(th, func(tx stm.Tx) {
					va := tx.ReadField(handles[a], 0)
					vb := tx.ReadField(handles[b], 0)
					tx.WriteField(handles[a], 0, va+1)
					tx.WriteField(handles[b], 0, vb+1)
				})
				if i%37 == 0 {
					// Explicit restart on the first attempt only.
					restarted := false
					stm.AtomicVoid(th, func(tx stm.Tx) {
						if !restarted {
							restarted = true
							tx.Restart()
						}
						_ = tx.ReadField(handles[0], 0)
					})
				}
				if i%53 == 0 {
					if _, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) {
						_ = tx.ReadField(handles[0], 0)
						return struct{}{}, errUser
					}); err != errUser {
						t.Errorf("user error not delivered: %v", err)
					}
				}
			}
			done <- th.Stats()
		}(w)
	}
	var sum stm.Stats
	for w := 0; w < threads; w++ {
		sum.Add(<-done)
	}

	if sum.AbortsExplicit == 0 || sum.AbortsUser == 0 {
		t.Fatalf("%s: workload did not exercise explicit/user aborts: %+v", e.Name(), sum)
	}
	if got := sum.Sum(); got != sum.Aborts {
		t.Errorf("%s: abort-cause partition violated: sum(causes)=%d, Aborts=%d (%+v)",
			e.Name(), got, sum.Aborts, sum.AbortCauses)
	}
	if sum.AbortsUnwound+sum.AbortsReturned != sum.Aborts {
		t.Errorf("%s: delivery split violated: unwound=%d + returned=%d != aborts=%d",
			e.Name(), sum.AbortsUnwound, sum.AbortsReturned, sum.Aborts)
	}
}

// errUser is the sentinel user error AbortCausePartition returns from
// transaction bodies.
var errUser = errSentinel("stmtest: user abort")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
