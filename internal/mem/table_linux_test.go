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

// mappedTable reports whether s is a mapping of its own: a line of
// /proc/self/maps that starts at the first element and spans the table,
// rounded up to whole pages. A Go slice lives inside a heap arena
// reservation, which never starts and ends there.
func mappedTable[T any](t *testing.T, s []T) bool {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := uintptr(os.Getpagesize())
	start := uintptr(unsafe.Pointer(&s[0]))
	end := start + (uintptr(len(s))*unsafe.Sizeof(s[0])+page-1)/page*page
	want := fmt.Sprintf("%x-%x ", start, end)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), want) {
			return true
		}
	}
	return false
}

// mapped reports whether a's words are a mapping of their own.
func mapped(t *testing.T, a *Arena) bool {
	t.Helper()
	return mappedTable(t, a.Words())
}

// entry is a 16-byte table entry, the size of SwissTM's lock entry.
type entry struct{ r, w uint64 }

// owner stands for a table's owner: an engine or a store.
type owner struct{ _ [64]byte }

// unmap waits, collecting, until no mapping covers s: the kernel merges
// a new mapping with a live neighbour of the same flags, which would hide
// the next test's mapping from mappedTable. s's owner must be unreachable.
func unmap[T any](t *testing.T, s []T) {
	t.Helper()
	addr := uintptr(unsafe.Pointer(&s[0]))
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		data, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		covered := false
		for _, line := range strings.Split(string(data), "\n") {
			var lo, hi uintptr
			if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err == nil && lo <= addr && addr < hi {
				covered = true
			}
		}
		if !covered {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("a table is still mapped 2 s after its owner was dropped")
		}
	}
}

// TestTableThresholdInBytes: the threshold counts bytes, not entries —
// 2^17 16-byte entries (2 MiB) are mapped, 2^17 8-byte entries are not.
func TestTableThresholdInBytes(t *testing.T) {
	o := new(owner)
	big := NewTable[entry](o, 1<<17)
	if !mappedTable(t, big) {
		t.Fatal("2^17 16-byte entries are not a mapping of their own")
	}
	if small := NewTable[uint64](o, 1<<17); mappedTable(t, small) {
		t.Error("2^17 8-byte entries are mapped, want a Go slice")
	}
	runtime.KeepAlive(o)
	unmap(t, big)
}

// TestMappedTableZero: a mapped table reads zero everywhere, and a
// write to its last entry reads back.
func TestMappedTableZero(t *testing.T) {
	o := new(owner)
	tbl := NewTable[entry](o, 1<<17+3)
	if !mappedTable(t, tbl) {
		t.Fatal("a 2 MiB table is not a mapping of its own")
	}
	for i, e := range tbl {
		if e != (entry{}) {
			t.Fatalf("entry %d reads %+v, want zero", i, e)
		}
	}
	tbl[len(tbl)-1] = entry{1, 2}
	if tbl[len(tbl)-1] != (entry{1, 2}) {
		t.Fatal("the last entry does not read back")
	}
	runtime.KeepAlive(o)
	unmap(t, tbl)
}

// TestMappedArenaZeroAndShared: a mapped arena reads zero everywhere,
// and its first and last words hold what is stored in them.
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
	w[last].Store(7)
	w[1].Store(9)
	if a.Words()[last].Load() != 7 || a.Words()[1].Load() != 9 {
		t.Fatal("stores to the arena's first and last words were lost")
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
		w := a.Words()
		w[base].Store(1)
		w[end].Store(2)
		if w[base].Load() != 1 || w[end].Load() != 2 {
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
	w := a.Words()
	for i := 0; i < len(w); i += 512 {
		w[i].Store(1)
	}
	return vmRSS(t)
}

// touchTable is touchArena for a 64 MiB table of an owner that is
// unreachable once it returns.
func touchTable(t *testing.T) int64 {
	o := new(owner)
	tbl := NewTable[uint64](o, 64<<20/8)
	for i := 0; i < len(tbl); i += 512 {
		tbl[i] = 1
	}
	runtime.KeepAlive(o)
	return vmRSS(t)
}

// returned fails t unless the resident set falls at least 48 MiB below
// touched within 2 s of collections.
func returned(t *testing.T, touched int64, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		rss := vmRSS(t)
		if touched-rss >= 48<<20 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("VmRSS fell %d MiB in 2 s after a touched 64 MiB %s was dropped, want ≥ 48", (touched-rss)>>20, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMappedArenaReturned: a dropped mapped arena goes back to the OS.
func TestMappedArenaReturned(t *testing.T) { returned(t, touchArena(t), "arena") }

// TestMappedTableReturned: a mapped table goes back to the OS once its
// owner is dropped.
func TestMappedTableReturned(t *testing.T) { returned(t, touchTable(t), "table") }

// smaps returns the Rss and AnonHugePages, in bytes, of the mapping that
// covers addr in /proc/self/smaps.
func smaps(t *testing.T, addr uintptr) (rss, huge int64) {
	t.Helper()
	data, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	in, found := false, false
	for _, line := range strings.Split(string(data), "\n") {
		var lo, hi uintptr
		if _, err := fmt.Sscanf(line, "%x-%x ", &lo, &hi); err == nil {
			in = lo <= addr && addr < hi
			found = found || in
			continue
		}
		if f := strings.Fields(line); in && len(f) == 3 && f[2] == "kB" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			switch f[0] {
			case "Rss:":
				rss = kb << 10
			case "AnonHugePages:":
				huge = kb << 10
			}
		}
	}
	if !found {
		t.Fatalf("no mapping covers %#x in /proc/self/smaps", addr)
	}
	return rss, huge
}

// TestLogThreshold: a log bound of 2 MiB is a mapping of its own with
// room for the bound, one entry less is a Go slice with room for small.
func TestLogThreshold(t *testing.T) {
	o := new(owner)
	big := NewLog[entry](o, 1<<17, 1024)
	if len(big) != 0 || cap(big) != 1<<17 || !mappedTable(t, big[:1<<17]) {
		t.Fatalf("a 2 MiB log: len %d cap %d, want an empty mapping of its own with room for 2^17", len(big), cap(big))
	}
	if small := NewLog[entry](o, 1<<17-1, 1024); len(small) != 0 || cap(small) != 1024 || mappedTable(t, small[:1]) {
		t.Errorf("a log one entry under 2 MiB: len %d cap %d, want an empty Go slice with room for 1 024", len(small), cap(small))
	}
	runtime.KeepAlive(o)
	unmap(t, big[:1])
}

// TestLogOffHugePages: a mapped log is on small pages, so appending its
// first entry makes one page of a 4 MiB reservation resident, not a
// 2 MiB huge page; the mapping goes once its owner is dropped.
func TestLogOffHugePages(t *testing.T) {
	o := new(owner)
	log := NewLog[entry](o, 4<<20/16, 1024)
	log = append(log, entry{1, 2})
	if rss, huge := smaps(t, uintptr(unsafe.Pointer(&log[0]))); rss > 64<<10 || huge != 0 {
		t.Errorf("a 4 MiB log with one entry: Rss %d KiB, AnonHugePages %d KiB; want ≤ 64 and 0", rss>>10, huge>>10)
	}
	runtime.KeepAlive(o)
	unmap(t, log)
}

// touchLog is touchArena for a 64 MiB log, filled by append, of an owner
// that is unreachable once it returns.
func touchLog(t *testing.T) int64 {
	o := new(owner)
	log := NewLog[uint64](o, 64<<20/8, 1024)
	for len(log) < cap(log) {
		log = append(log, 1)
	}
	runtime.KeepAlive(o)
	return vmRSS(t)
}

// TestMappedLogReturned: a mapped log goes back to the OS once its owner
// is dropped.
func TestMappedLogReturned(t *testing.T) { returned(t, touchLog(t), "log") }
