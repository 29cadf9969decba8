package rstm

import (
	"testing"

	"swisstm/internal/cm"
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

// TestAbortCausePartition asserts sum(causes) == Aborts and the delivery
// split under a contended multi-thread mix, on every conformance variant
// (their abort flavors differ: eager W/W arbitration vs commit-time
// stale-clone detection, visible-reader kills, each manager's choices).
func TestAbortCausePartition(t *testing.T) {
	for _, v := range variants {
		c := v.cfg
		c.Manager = cm.ByName(c.Manager.Name())
		t.Run(v.name, func(t *testing.T) { stmtest.AbortCausePartition(t, New(c)) })
	}
}
