package harness

import (
	"runtime"
	"testing"
)

// engineHeap is how far HeapAlloc grows when spec's engine is built,
// collected on either side with the engine live.
func engineHeap(spec EngineSpec) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := spec.New()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestLockTablesOffHeap: an engine sized like the svc-* workloads' (a
// 2^20-word arena, 2^18 stripes) keeps its arena and its lock table (2 MiB
// or more) off the Go heap. A kv-hot-transfer-sized engine (a 2^14-word
// arena) keeps its 128 KiB arena and its lock table on the heap, as Go
// slices.
func TestLockTablesOffHeap(t *testing.T) {
	for _, c := range []struct {
		kind   string
		big    int64 // heap a 2^20-word engine stays under
		tables int64 // lock-table bytes of a 2^14-word engine
	}{
		{"swisstm", 1 << 20, 64 << 10},
		{"tl2", 1 << 20, 32 << 10},
		{"tinystm", 1 << 20, 32 << 10},
	} {
		if g := engineHeap(EngineSpec{Kind: c.kind, ArenaWords: 1 << 20}); g >= c.big {
			t.Errorf("%s, 2^20 words: the Go heap grew %d KiB, want < %d", c.kind, g>>10, c.big>>10)
		}
		// Less 4 KiB: the second collection also frees the test's own garbage.
		if g, want := engineHeap(EngineSpec{Kind: c.kind, ArenaWords: 1 << 14}), 128<<10+c.tables-4<<10; g < want {
			t.Errorf("%s, 2^14 words: the Go heap grew %d KiB, want ≥ %d", c.kind, g>>10, want>>10)
		}
	}
}
