package mem

import (
	"runtime"
	"syscall"
	"unsafe"
)

// mapWords is the smallest table mapped from the OS, in 8-byte words: one
// 2 MiB huge page.
const mapWords = 2 << 20 / 8

// mapTable returns size bytes of anonymous mapping, on huge pages when
// huge is set and never on them otherwise, unmapped once owner is
// collected; nil below 2 MiB or if the mapping fails.
func mapTable[O any](owner *O, size uintptr, huge bool) unsafe.Pointer {
	if size < mapWords*8 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	advice := syscall.MADV_NOHUGEPAGE
	if huge {
		advice = syscall.MADV_HUGEPAGE
	}
	_ = syscall.Madvise(b, advice)
	runtime.AddCleanup(owner, func(b []byte) { _ = syscall.Munmap(b) }, b)
	return unsafe.Pointer(&b[0])
}
