package swisstm

import (
	"testing"

	"swisstm/internal/obs"
	"swisstm/internal/stm/stmtest"
)

// TestZeroAllocSteadyStateObs pins the instrumented hot path: with
// per-transaction telemetry armed, warm commits must still allocate
// nothing (DESIGN.md §11).
func TestZeroAllocSteadyStateObs(t *testing.T) {
	o := obs.NewTxnObs()
	e := New(Config{ArenaWords: 1 << 16, TableBits: 10, Obs: o})
	stmtest.ZeroAllocSteadyStateObs(t, e, o, true, true)
}

// TestAbortCausePartition asserts sum(causes) == Aborts plus the
// validation and delivery splits under a contended multi-thread mix.
func TestAbortCausePartition(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 16, TableBits: 10})
	stmtest.AbortCausePartition(t, e)
}
