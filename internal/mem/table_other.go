//go:build !linux

package mem

import "unsafe"

// mapTable maps nothing off Linux: every table and log is a Go slice
// (table_linux.go maps large ones from the OS).
func mapTable[O any](*O, uintptr, bool) unsafe.Pointer { return nil }
