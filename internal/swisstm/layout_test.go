package swisstm

import (
	"testing"
	"unsafe"
)

// TestLockEntryLayout: a lock-table entry is 16 bytes and the table starts
// on a 16-byte boundary, for a table of a small arena (64 KB, 4 096
// entries) and of a large one (4 MB, 2^18 entries). Together these keep
// each stripe's r-lock and w-lock on one 64-byte line, four stripes to a
// line.
func TestLockEntryLayout(t *testing.T) {
	if s := unsafe.Sizeof(lockEntry{}); s != 16 {
		t.Fatalf("lockEntry is %d bytes, want 16", s)
	}
	for _, c := range []struct {
		cfg   Config
		bytes int
	}{
		{Config{ArenaWords: 1 << 14, StripeWords: 4, TableBits: 18}, 64 << 10},
		{Config{ArenaWords: 1 << 20, StripeWords: 4, TableBits: 18}, 4 << 20},
	} {
		e := New(c.cfg)
		if n := len(e.locks) * int(unsafe.Sizeof(lockEntry{})); n != c.bytes {
			t.Errorf("arena %d words: table of %d bytes, want %d", c.cfg.ArenaWords, n, c.bytes)
		}
		if p := uintptr(unsafe.Pointer(&e.locks[0])); p%16 != 0 {
			t.Errorf("arena %d words: table at %#x, not 16-byte aligned", c.cfg.ArenaWords, p)
		}
	}
}
