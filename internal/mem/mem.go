// Package mem provides the flat transactional word arena that stands in for
// the raw C heap of the original SwissTM implementation.
//
// Go's garbage collector rules out instrumenting arbitrary addresses, so
// every STM engine in this repository operates on a single preallocated
// arena of 64-bit words. An address (Addr) is simply a word index; the
// engines map addresses onto lock-table stripes with the shift-and-mask
// scheme of the paper's Figure 1.
//
// All word accesses are atomic so that the invisible-read protocols of the
// engines (which read data words while concurrent committers write them)
// are well-defined under the Go memory model.
//
// Every pointer-free table sized once at construction — an arena's words,
// an engine's lock tables, a txkv store's slot directory — comes from
// NewTable. On Linux a table of 2 MiB or more is an anonymous mapping of
// its own on huge pages, so only the pages in use become resident; it is
// unmapped once its owner is collected, so a table is valid only while its
// owner is reachable. Smaller tables, and all tables elsewhere, are slices.
// NewLog reserves the same way for a log that grows by append up to a
// known bound — SwissTM's and TinySTM's read logs — but never on huge
// pages: a log is resident as far as it has grown, not to its bound.
package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// NewTable returns a zeroed table of n Ts, valid while owner is reachable.
// T must hold no pointers: a mapped table (package doc) is outside the Go
// heap, so the collector neither scans it nor keeps anything alive by it.
func NewTable[T, O any](owner *O, n int) []T {
	var t T
	if p := mapTable(owner, uintptr(n)*unsafe.Sizeof(t), true); p != nil {
		return unsafe.Slice((*T)(p), n)
	}
	return make([]T, n)
}

// NewLog returns an empty log of Ts that never holds more than n, valid
// while owner is reachable. Where NewTable would map n Ts, the log is
// that mapping on small pages, with room for all n: appending to it never
// allocates. Otherwise it is a Go slice with room for small, grown by
// append. T must hold no pointers, as for NewTable.
func NewLog[T, O any](owner *O, n, small int) []T {
	var t T
	if p := mapTable(owner, uintptr(n)*unsafe.Sizeof(t), false); p != nil {
		return unsafe.Slice((*T)(p), n)[:0]
	}
	return make([]T, 0, small)
}

// CacheLine is the assumed coherence granularity. 64 bytes is correct for
// every x86-64 and almost every arm64 part; padding to it prevents false
// sharing of logically independent hot words (DESIGN.md §7).
const CacheLine = 64

// CacheLinePad is inserted between struct fields to push the next field
// onto its own cache line.
type CacheLinePad struct{ _ [CacheLine]byte }

// PaddedUint64 is an atomic.Uint64 followed by enough padding that
// adjacent PaddedUint64s sit a full cache line apart. Go only guarantees
// 8-byte alignment, so when the enclosing allocation is not line-aligned
// a value may straddle two lines and neighbors share the boundary line —
// the padding bounds false sharing to at most that boundary rather than
// eliminating it outright. Engines use it for their global clocks, which
// are written from different cores at high rates.
type PaddedUint64 struct {
	atomic.Uint64
	_ [CacheLine - 8]byte
}

// Word is the unit of transactional storage: one 64-bit machine word.
type Word = uint64

// Addr is a word index into an Arena. Address 0 is valid but, by
// convention, allocation starts at 1 so that 0 can serve as a nil handle.
type Addr = uint32

// Arena is a fixed-capacity flat array of transactional words with a
// lock-free bump allocator. It is the shared "heap" all transactions
// operate on.
type Arena struct {
	words []atomic.Uint64
	next  atomic.Uint64 // next free word index
}

// NewArena returns a zeroed arena with capacity for capWords words, at
// most 2^32, all an Addr can index. Word index 0 is reserved (the nil
// handle), so usable capacity is capWords-1 words.
func NewArena(capWords int) *Arena {
	if capWords < 2 {
		capWords = 2
	}
	if uint64(capWords) > 1<<32 {
		panic(fmt.Sprintf("mem: arena of %d words is more than the 2^32 an Addr can index", capWords))
	}
	a := &Arena{}
	a.words = NewTable[atomic.Uint64](a, capWords)
	a.next.Store(1) // reserve index 0 as nil
	return a
}

// Alloc reserves n contiguous words and returns the address of the first.
// It never returns 0. Alloc panics if the arena is exhausted: benchmarks
// size their arenas up front, and exhaustion is a configuration error, not
// a runtime condition to handle.
func (a *Arena) Alloc(n uint32) Addr {
	if n == 0 {
		n = 1
	}
	base := a.next.Add(uint64(n)) - uint64(n)
	if base+uint64(n) > uint64(len(a.words)) {
		panic(fmt.Sprintf("mem: arena exhausted (cap %d words, want %d more)", len(a.words), n))
	}
	return Addr(base)
}

// Words exposes the backing word array, the arena's one access path:
// engines cache its slice header and index the heap directly on their hot
// paths, and tests read and write raw words through it outside any
// transaction. The slice must only be accessed with atomic operations,
// and only while a is reachable (package doc).
func (a *Arena) Words() []atomic.Uint64 { return a.words }

// Cap returns the arena capacity in words.
func (a *Arena) Cap() int { return len(a.words) }

// Used returns the number of words allocated so far (including the reserved
// word 0).
func (a *Arena) Used() int { return int(a.next.Load()) }
