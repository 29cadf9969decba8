package swisstm

import (
	"testing"

	"swisstm/internal/stm"
)

// TestAliasedStripes forces many distinct memory regions onto one
// lock-table entry (tiny table) and checks that read-after-write, commit
// write-back and isolation all survive the aliasing.
func TestAliasedStripes(t *testing.T) {
	// 16-entry table, 4-word stripes: addresses 64 apart alias.
	e := New(Config{ArenaWords: 1 << 14, TableBits: 4, StripeWords: 4})
	th := e.NewThread(0)
	var base stm.Handle
	stm.AtomicVoid(th, func(tx stm.Tx) { base = tx.NewObject(4096) })
	stm.AtomicVoid(th, func(tx stm.Tx) {
		// All of these hit the same lock entry (stride = table*stripe).
		for i := stm.Addr(0); i < 20; i++ {
			tx.WriteField(base, i*64, stm.Word(i)+100)
		}
		for i := stm.Addr(0); i < 20; i++ {
			if got := tx.ReadField(base, i*64); got != stm.Word(i)+100 {
				t.Fatalf("read-after-write alias %d: got %d", i, got)
			}
		}
		// Overwrite one aliased slot.
		tx.WriteField(base, 5*64, 999)
		if got := tx.ReadField(base, 5*64); got != 999 {
			t.Fatalf("aliased overwrite lost: got %d", got)
		}
	})
	// Committed values must all be in memory.
	for i := stm.Addr(0); i < 20; i++ {
		want := stm.Word(i) + 100
		if i == 5 {
			want = 999
		}
		if got := e.Arena().Words()[stm.Addr(base)+i*64].Load(); got != want {
			t.Fatalf("post-commit alias %d: got %d, want %d", i, got, want)
		}
	}
}

// TestAliasedUnwrittenRead checks that a read of an unwritten word in an
// aliased region owned by the same transaction returns memory, not a
// buffered value.
func TestAliasedUnwrittenRead(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 14, TableBits: 4, StripeWords: 4})
	th := e.NewThread(0)
	var base stm.Handle
	stm.AtomicVoid(th, func(tx stm.Tx) {
		base = tx.NewObject(4096)
		tx.WriteField(base, 128, 7) // pre-existing committed value below
	})
	stm.AtomicVoid(th, func(tx stm.Tx) {
		tx.WriteField(base, 0, 1) // acquires the lock entry that also covers base+128
		if got := tx.ReadField(base, 128); got != 7 {
			t.Fatalf("unwritten aliased word: got %d, want 7", got)
		}
	})
}
