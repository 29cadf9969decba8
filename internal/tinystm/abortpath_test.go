package tinystm

import (
	"testing"

	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
)

// TestAbortPath runs the two-tier abort-delivery conformance suite
// (DESIGN.md §8): TinySTM's commit-time validation failures must return
// through the checked path; encounter-time lock conflicts and Restart
// keep unwinding; user panics propagate with the owner locks released.
func TestAbortPath(t *testing.T) {
	mk := func() stm.STM {
		return New(Config{ArenaWords: 1 << 16, TableBits: 10})
	}
	stmtest.AbortPathSuite(t, mk, stmtest.ShapeReadValidation)
}
