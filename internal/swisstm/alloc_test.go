package swisstm

import (
	"testing"

	"swisstm/internal/stm/stmtest"
)

// TestZeroAllocSteadyState is the allocation-regression gate of
// DESIGN.md §7: warm transactions must not allocate.
func TestZeroAllocSteadyState(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 16, TableBits: 10})
	stmtest.ZeroAllocSteadyState(t, e, true, true)
}

// TestZeroAllocLongRead: a 50 000-stripe read set costs no allocation
// once the read log has grown to it (stmtest.ZeroAllocLongRead).
func TestZeroAllocLongRead(t *testing.T) {
	stmtest.ZeroAllocLongRead(t, New(Config{ArenaWords: 1 << 18, TableBits: 16}))
}
