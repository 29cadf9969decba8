package mem

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mapWords is the smallest arena mapped from the OS: one 2 MiB huge page.
const mapWords = 2 << 20 / 8

// newWords returns a's n words: from mapWords up an anonymous mapping on
// huge pages, unmapped once a is collected; otherwise a Go slice.
func newWords(a *Arena, n int) []atomic.Uint64 {
	if n >= mapWords {
		b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err == nil {
			_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
			runtime.AddCleanup(a, func(b []byte) { _ = syscall.Munmap(b) }, b)
			return unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&b[0])), n)
		}
	}
	return make([]atomic.Uint64, n)
}
