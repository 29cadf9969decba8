package tinystm

import (
	"testing"

	"swisstm/internal/stm/stmtest"
)

// BenchmarkShortUpdate4 prices the engine's fixed cost per short update
// transaction (stmtest.ShortUpdate4): one thread, four stripes read then
// written, no contention.
func BenchmarkShortUpdate4(b *testing.B) {
	stmtest.ShortUpdate4(b, New(Config{ArenaWords: 1 << 16, TableBits: 12}))
}

// BenchmarkLongRead prices one read of a long read-only transaction
// (stmtest.LongRead): 16 384 distinct stripes read in order, then re-read
// shuffled.
func BenchmarkLongRead(b *testing.B) {
	stmtest.LongRead(b, New(Config{ArenaWords: 1 << 17, TableBits: 18}))
}
