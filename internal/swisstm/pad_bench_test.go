package swisstm

import (
	"sync/atomic"
	"testing"

	"swisstm/internal/mem"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// BenchmarkActivitySlotLayout is the false-sharing ablation behind the
// padded activity array: it reproduces the quiescence access pattern —
// every worker stores its own slot per transaction while committers scan
// all slots — on the old unpadded layout and on the padded one the
// engine now uses. The "shared" variant packs eight slots per cache
// line, so every slot store invalidates the line for seven other cores.
func BenchmarkActivitySlotLayout(b *testing.B) {
	b.Run("shared", func(b *testing.B) {
		var slots [stm.MaxThreads]atomic.Uint64
		benchSlots(b, func(i int) *atomic.Uint64 { return &slots[i] })
	})
	b.Run("padded", func(b *testing.B) {
		var slots [stm.MaxThreads]mem.PaddedUint64
		benchSlots(b, func(i int) *atomic.Uint64 { return &slots[i].Uint64 })
	})
}

func benchSlots(b *testing.B, slot func(int) *atomic.Uint64) {
	var tid atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := int(tid.Add(1)) % stm.MaxThreads
		mine := slot(id)
		n := uint64(0)
		for pb.Next() {
			n++
			mine.Store(n) // begin: publish snapshot
			if n&0xf == 0 {
				// Committer path: scan every slot (quiesce).
				for i := 0; i < stm.MaxThreads; i++ {
					slot(i).Load()
				}
			}
			mine.Store(0) // end: deactivate
		}
	})
}

// BenchmarkPrivatizationSafeReadHeavy prices the quiescence scheme of the
// paper's §6 at engine level: a read-heavy workload on plain counters,
// the configuration where activity-slot traffic dominates, with the
// scheme off ("unsafe") and armed ("quiescence").
func BenchmarkPrivatizationSafeReadHeavy(b *testing.B) {
	for _, safe := range []bool{false, true} {
		name := "unsafe"
		if safe {
			name = "quiescence"
		}
		b.Run(name, func(b *testing.B) {
			e := New(Config{ArenaWords: 1 << 16, TableBits: 12, PrivatizationSafe: safe})
			setup := e.NewThread(0)
			var words [64]stm.Addr
			stm.AtomicVoid(setup, func(tx stm.Tx) {
				for i := range words {
					words[i] = tx.AllocWords(1)
					tx.Store(words[i], 1)
				}
			})
			var tid atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(tid.Add(1)) % stm.MaxThreads
				th := e.NewThread(id)
				rng := util.NewRand(uint64(id)*31 + 7)
				for pb.Next() {
					if rng.Intn(100) < 5 {
						w := words[rng.Intn(len(words))]
						stm.AtomicVoid(th, func(tx stm.Tx) { tx.Store(w, tx.Load(w)+1) })
					} else {
						stm.AtomicVoid(th, func(tx stm.Tx) {
							var sum stm.Word
							for _, w := range words[:16] {
								sum += tx.Load(w)
							}
							_ = sum
						})
					}
				}
			})
		})
	}
}
