package txkv_test

import (
	"runtime"
	"testing"

	"swisstm/internal/harness"
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
