package bench7

import (
	"sync"
	"sync/atomic"
	"testing"

	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
	"swisstm/internal/util"
)

// benchEngines builds each word engine over an arena that holds the
// ReadWrite structure, with stripes of stripeWords words (0: the default
// four) and the repo benchmark's 2^18-entry lock table; wordEngines' 2^14
// entries would alias the structure's stripes at one word per stripe.
func benchEngines(stripeWords int) map[string]func() stm.STM {
	const arena, bits = 1 << 20, 18
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM {
			return swisstm.New(swisstm.Config{ArenaWords: arena, StripeWords: stripeWords, TableBits: bits})
		},
		"tinystm": func() stm.STM {
			return tinystm.New(tinystm.Config{ArenaWords: arena, StripeWords: stripeWords, TableBits: bits})
		},
		"tl2": func() stm.STM {
			return tl2.New(tl2.Config{ArenaWords: arena, StripeWords: stripeWords, TableBits: bits})
		},
	}
}

// BenchmarkLongTraversal prices the long read-only traversal, the
// transaction that takes most of bench7-rw's CPU, on one thread of each
// word engine over the ReadWrite structure: ns/op is one whole traversal,
// ns/part its cost per atomic part visited.
//
//	go test -run '^$' -bench LongTraversal ./internal/bench7
func BenchmarkLongTraversal(b *testing.B) {
	for _, name := range []string{"swisstm", "tinystm", "tl2"} {
		b.Run(name, func(b *testing.B) {
			e := benchEngines(0)[name]()
			bn := Setup(e, ReadWrite)
			th := e.NewThread(1)
			ops := bn.NewOps(th, util.NewRand(1))
			parts := ops.LongTraversal() // warms the read log
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.LongTraversal()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(parts), "ns/part")
		})
	}
}

// BenchmarkLongTraversalVsUpdate runs SwissTM's long traversal while a
// partner thread loops UpdateComponent, which swaps the x and y fields of
// every part of one composite, and reports the traversal's aborts per
// commit at stripes of 4 words and of 1. Bench7-rw's traversals abort
// against such swaps and against structure modifications; the difference
// between the two stripe sizes is the share that is false conflicts
// between a part's fields and its neighbours' in one stripe.
//
//	go test -run '^$' -bench LongTraversalVsUpdate -benchtime 20x ./internal/bench7
func BenchmarkLongTraversalVsUpdate(b *testing.B) {
	for _, stripe := range []struct {
		name  string
		words int
	}{{"stripe=4", 4}, {"stripe=1", 1}} {
		b.Run(stripe.name, func(b *testing.B) {
			e := benchEngines(stripe.words)["swisstm"]()
			bn := Setup(e, ReadWrite)
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				partner := bn.NewOps(e.NewThread(2), util.NewRand(2))
				for !stop.Load() {
					partner.UpdateComponent()
				}
			}()
			th := e.NewThread(1)
			ops := bn.NewOps(th, util.NewRand(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops.LongTraversal()
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(th.Stats().Aborts)/float64(b.N), "aborts/traversal")
		})
	}
}
