package mem

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocSequential(t *testing.T) {
	a := NewArena(128)
	x := a.Alloc(4)
	y := a.Alloc(4)
	if x == 0 {
		t.Fatal("Alloc returned the reserved nil address")
	}
	if y < x+4 {
		t.Fatalf("allocations overlap: x=%d y=%d", x, y)
	}
	if a.Used() != 9 { // 1 reserved + 8
		t.Fatalf("Used = %d, want 9", a.Used())
	}
	if a.Cap() != 128 {
		t.Fatalf("Cap = %d, want 128", a.Cap())
	}
}

func TestAllocZeroCountsAsOne(t *testing.T) {
	a := NewArena(16)
	x := a.Alloc(0)
	y := a.Alloc(1)
	if y == x {
		t.Fatal("zero-size allocation did not reserve a word")
	}
}

func TestExhaustionPanics(t *testing.T) {
	a := NewArena(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	a.Alloc(100)
}

// TestQuickAllocNonOverlap: property — any sequence of allocation sizes
// yields pairwise disjoint, in-bounds ranges.
func TestQuickAllocNonOverlap(t *testing.T) {
	check := func(sizes []uint8) bool {
		a := NewArena(1 << 16)
		prevEnd := Addr(1)
		for _, sz := range sizes {
			n := uint32(sz%64) + 1
			base := a.Alloc(n)
			if base < prevEnd {
				return false
			}
			prevEnd = base + Addr(n)
		}
		return int(prevEnd) <= a.Cap()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAlloc: the bump allocator must hand out disjoint blocks
// under contention.
func TestConcurrentAlloc(t *testing.T) {
	a := NewArena(1 << 16)
	const workers, per = 8, 100
	blocks := make([][]Addr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				blocks[id] = append(blocks[id], a.Alloc(7))
			}
		}(w)
	}
	wg.Wait()
	seen := map[Addr]bool{}
	for _, bs := range blocks {
		for _, b := range bs {
			for k := Addr(0); k < 7; k++ {
				if seen[b+k] {
					t.Fatalf("word %d allocated twice", b+k)
				}
				seen[b+k] = true
			}
		}
	}
}

// TestArenaBoundedByAddr: an Addr is 32 bits, so NewArena refuses a
// capacity it could not index, before it allocates anything.
func TestArenaBoundedByAddr(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("NewArena(1<<32 + 1) did not panic")
		} else if msg, _ := r.(string); !strings.Contains(msg, "Addr") {
			t.Fatalf("panic %q does not say why", r)
		}
	}()
	NewArena(1<<32 + 1)
}
