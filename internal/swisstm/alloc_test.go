package swisstm

import (
	"testing"

	"swisstm/internal/stm/stmtest"
)

// TestZeroAllocSteadyState is the allocation-regression gate of
// DESIGN.md §7: warm transactions must not allocate, on the default
// configuration and with the quiescence scheme armed.
func TestZeroAllocSteadyState(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 16, TableBits: 10})
	stmtest.ZeroAllocSteadyState(t, e, true, true)
}

func TestZeroAllocSteadyStatePrivatizationSafe(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 16, TableBits: 10, PrivatizationSafe: true})
	stmtest.ZeroAllocSteadyState(t, e, true, true)
}

// TestZeroAllocLongRead: a 50 000-stripe read set costs no allocation
// once the read log has grown to it (stmtest.ZeroAllocLongRead).
func TestZeroAllocLongRead(t *testing.T) {
	stmtest.ZeroAllocLongRead(t, New(Config{ArenaWords: 1 << 18, TableBits: 16}))
}
