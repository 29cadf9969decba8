package swisstm

import (
	"testing"

	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
)

// TestZeroAllocFirstLongRead: a fresh thread reads all 2^17 stripes of
// its table without allocating: NewThread reserved its read log at that
// size (stmtest.ZeroAllocFirstLongRead).
func TestZeroAllocFirstLongRead(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 19, TableBits: 17}) // 2^17 four-word stripes, 2 MiB of read log
	stmtest.ZeroAllocFirstLongRead(t, e, func(th stm.Thread) int { return cap(th.(*txn).rs.Log) })
}
