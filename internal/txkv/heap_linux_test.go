package txkv_test

import (
	"runtime"
	"testing"

	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
)

// heapGrowth is how far HeapAlloc grows across build, collected on
// either side, with what build made still live.
func heapGrowth(build func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestDirectoryOffHeap: a 65 536-key store's slot directory, 2^18 handles
// or 2 MiB, is mapped from the OS, not allocated on the Go heap, and each
// shard's row is capped at its own slots.
func TestDirectoryOffHeap(t *testing.T) {
	th := harness.EngineSpec{Kind: "swisstm", ArenaWords: 1 << 21}.New().NewThread(0)
	cfg := txkv.ConfigForKeys(65536)
	txkv.New(th, cfg) // grows th's logs, so the growth measured is the store's
	var s *txkv.Store
	if g := heapGrowth(func() { s = txkv.New(th, cfg) }); g >= 1<<20 {
		t.Errorf("a 65 536-key store grew the Go heap by %d KiB, want < 1 MiB", g>>10)
	}
	runtime.KeepAlive(th) // and its engine, whose collection would hide the growth
	for i, row := range s.Rows() {
		if len(row) != cfg.Slots || cap(row) != len(row) {
			t.Errorf("shard %d: row len %d cap %d, want both %d", i, len(row), cap(row), cfg.Slots)
		}
	}
}

// TestLenReadLogOffHeap: a whole-store Len on a fresh thread logs one
// read per stripe of a 65 536-key store, 2^17 entries, into the read log
// NewThread reserved off the Go heap, so it grows the heap by almost
// nothing; a Go-slice log would keep over 2 MiB of it live.
func TestLenReadLogOffHeap(t *testing.T) {
	e := harness.EngineSpec{Kind: "swisstm", ArenaWords: 1 << 21}.New()
	s := txkv.NewInitialized(e.NewThread(0), 65536, 1)
	th := e.NewThread(1)
	n := 0
	if g := heapGrowth(func() { n = stm.AtomicRO(th, s.Len) }); g >= 256<<10 {
		t.Errorf("Len on a fresh thread grew the Go heap by %d KiB, want < 256 KiB", g>>10)
	}
	if n != 65536 {
		t.Fatalf("Len = %d, want 65536", n)
	}
	if r := th.Stats().ReadsLogged; r != 1<<17 {
		t.Errorf("Len logged %d reads, want 2^17", r)
	}
	runtime.KeepAlive(th) // and its read log, whose collection would hide the growth
}
