package swisstm

import (
	"testing"

	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
)

// TestAbortPath runs the two-tier abort-delivery conformance suite
// (DESIGN.md §8): SwissTM's commit-time validation failures must return
// through the checked path, never across a recover; mid-body conflicts
// and Restart must keep unwinding; user panics must propagate with the
// write locks released.
func TestAbortPath(t *testing.T) {
	mk := func() stm.STM {
		return New(Config{ArenaWords: 1 << 16, TableBits: 10, NoBackoff: true})
	}
	stmtest.AbortPathSuite(t, mk, stmtest.ShapeReadValidation)
}

// TestAbortPathTimid repeats the forced-conflict check under the timid
// CM, whose mid-body self-aborts exercise the unwinding tier heavily in
// the StatsPartition hammer.
func TestAbortPathTimid(t *testing.T) {
	mk := func() stm.STM {
		return New(Config{ArenaWords: 1 << 16, TableBits: 10, Policy: Timid, NoBackoff: true})
	}
	stmtest.AbortPathSuite(t, mk, stmtest.ShapeReadValidation)
}
