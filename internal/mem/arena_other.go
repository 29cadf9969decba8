//go:build !linux

package mem

import "sync/atomic"

// newWords returns a's backing array of n words: off Linux, always a Go
// slice (arena_linux.go maps large arenas from the OS).
func newWords(_ *Arena, n int) []atomic.Uint64 { return make([]atomic.Uint64, n) }
