package mem

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// mapped reports whether a's words are a mapping of their own: a line of
// /proc/self/maps that starts at the first word and spans the arena,
// rounded up to whole pages. A Go slice lives inside a heap arena
// reservation, which never starts and ends there.
func mapped(t *testing.T, a *Arena) bool {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := uintptr(os.Getpagesize())
	start := uintptr(unsafe.Pointer(&a.Words()[0]))
	end := start + (uintptr(a.Cap())*8+page-1)/page*page
	want := fmt.Sprintf("%x-%x ", start, end)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), want) {
			return true
		}
	}
	return false
}

// TestMappedArenaZeroAndShared: a mapped arena reads zero everywhere,
// and Words, Load and Store see the same storage.
func TestMappedArenaZeroAndShared(t *testing.T) {
	a := NewArena(2*mapWords + 3)
	if !mapped(t, a) {
		t.Fatal("a 2-huge-page arena is not a mapping of its own")
	}
	w := a.Words()
	for i := range w {
		if v := w[i].Load(); v != 0 {
			t.Fatalf("word %d reads %d, want 0", i, v)
		}
	}
	last := Addr(a.Cap() - 1)
	a.Store(last, 7)
	w[1].Store(9)
	if w[last].Load() != 7 || a.Load(1) != 9 {
		t.Fatal("Words and Load/Store disagree")
	}
}

// TestMapThreshold: one word below 2 MiB stays a Go slice, 2 MiB is
// mapped, and both allocate, store and load.
func TestMapThreshold(t *testing.T) {
	for _, n := range []int{mapWords - 1, mapWords} {
		a := NewArena(n)
		if got, want := mapped(t, a), n >= mapWords; got != want {
			t.Errorf("NewArena(%d): mapped = %v, want %v", n, got, want)
		}
		base := a.Alloc(uint32(n - 1))
		end := Addr(n - 1)
		a.Store(base, 1)
		a.Store(end, 2)
		if a.Load(base) != 1 || a.Load(end) != 2 {
			t.Errorf("NewArena(%d): load/store round trip failed", n)
		}
	}
}

// vmRSS is the process's resident set in bytes, from /proc/self/status.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// touchArena makes every page of a 64 MiB arena resident and returns the
// resident set with it; the arena is unreachable once it returns.
func touchArena(t *testing.T) int64 {
	a := NewArena(64 << 20 / 8)
	for i := 0; i < a.Cap(); i += 512 {
		a.Store(Addr(i), 1)
	}
	return vmRSS(t)
}

// TestMappedArenaReturned: a dropped mapped arena goes back to the OS.
func TestMappedArenaReturned(t *testing.T) {
	touched := touchArena(t)
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		rss := vmRSS(t)
		if touched-rss >= 48<<20 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("VmRSS fell %d MiB in 2 s after a touched 64 MiB arena was dropped, want ≥ 48", (touched-rss)>>20)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
