package rstm

import (
	"testing"

	"swisstm/internal/obs"
	"swisstm/internal/stm/stmtest"
)

// TestZeroAllocSteadyStateObs pins the instrumented hot path: with
// per-transaction telemetry armed, warm read-only commits must still
// allocate nothing (updates are exempt, as in the uninstrumented
// gate: per-object cloning is RSTM's defining cost).
func TestZeroAllocSteadyStateObs(t *testing.T) {
	o := obs.NewTxnObs()
	e := New(Config{Obs: o})
	stmtest.ZeroAllocSteadyStateObs(t, e, o, false, false)
}

// TestAbortCausePartition asserts sum(causes) == Aborts plus the
// validation and delivery splits under a contended multi-thread mix,
// on both acquisition modes (their abort flavors differ: eager W/W
// arbitration vs commit-time stale-clone detection).
func TestAbortCausePartition(t *testing.T) {
	for _, acq := range []AcquireMode{Eager, Lazy} {
		e := New(Config{Acquire: acq})
		stmtest.AbortCausePartition(t, e)
	}
}
