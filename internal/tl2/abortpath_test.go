package tl2

import (
	"testing"

	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
)

// TestAbortPath runs the two-tier abort-delivery conformance suite
// (DESIGN.md §8). TL2 is the engine where the checked tier covers the
// most ground: lazy acquisition defers every write/write conflict to
// commit, so both lock-acquire failures and commit validation return
// without unwinding; only read aborts (no extension mechanism) and
// Restart panic.
func TestAbortPath(t *testing.T) {
	mk := func() stm.STM {
		return New(Config{ArenaWords: 1 << 16, TableBits: 10})
	}
	stmtest.AbortPathSuite(t, mk, stmtest.ShapeLockAcquire)
}
