package bench7

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// mixClasses names Ops.Op's eight operation classes in the order
// drawClass numbers them: the read-only four, then the update four.
var mixClasses = [...]string{
	"ShortRead", "ReadComponent", "QueryDates", "LongTraversal",
	"ShortUpdate", "UpdateComponent", "StructureMod", "LongTraversalUpdate",
}

// mixRun runs each class's operation, indexed as mixClasses.
var mixRun = [...]func(*Ops){
	func(o *Ops) { o.ShortRead() }, func(o *Ops) { o.ReadComponent() },
	func(o *Ops) { o.QueryDates() }, func(o *Ops) { o.LongTraversal() },
	(*Ops).ShortUpdate, (*Ops).UpdateComponent,
	(*Ops).StructureMod, (*Ops).LongTraversalUpdate,
}

// drawClass draws one operation's class exactly as Ops.Op does — the same
// two draws from the same stream — so running mixRun[c] afterwards is Op.
func drawClass(o *Ops) int {
	readOnly := o.rng.Intn(100) < o.b.Cfg.ReadOnlyPct
	roll := o.rng.Intn(100)
	c := 3
	switch {
	case roll < 40:
		c = 0
	case roll < 80:
		c = 1
	case roll < 95:
		c = 2
	}
	if !readOnly {
		c += 4
	}
	return c
}

// mixTally is one class's totals over a run.
type mixTally struct {
	ns, calls, attempts, ww, valid uint64
}

// BenchmarkReadWriteMixAborts attributes bench7-rw's aborts to operation
// classes. Two SwissTM threads run the ReadWrite mix over the repo
// benchmark's lock table, b.N operations each, drawn as Ops.Op draws them;
// around every operation the thread's Stats and the clock are read. For
// each class it reports its share of the two threads' time, its attempts
// per call, and its write/write and validation aborts per call, from the
// Stats deltas alone (no engine hook). ops/s and aborts/op are the run's.
//
//	go test -run '^$' -bench ReadWriteMixAborts -benchtime 20000x ./internal/bench7
func BenchmarkReadWriteMixAborts(b *testing.B) {
	e := benchEngines(0)["swisstm"]()
	bn := Setup(e, ReadWrite)
	var tallies [2][len(mixClasses)]mixTally
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := e.NewThread(w + 1)
			o := bn.NewOps(th, util.NewRand(uint64(w)+1))
			t := &tallies[w]
			for i := 0; i < b.N; i++ {
				c := drawClass(o)
				s0, t0 := th.Stats(), time.Now()
				mixRun[c](o)
				d, s1 := time.Since(t0), th.Stats()
				t[c].ns += uint64(d)
				t[c].calls++
				t[c].attempts += s1.Commits + s1.Aborts - s0.Commits - s0.Aborts
				t[c].ww += s1.AbortsWW - s0.AbortsWW
				t[c].valid += s1.AbortsValidRead + s1.AbortsValidCommit - s0.AbortsValidRead - s0.AbortsValidCommit
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	var sum [len(mixClasses)]mixTally
	var ns, aborts uint64
	for w := range tallies {
		for c, t := range tallies[w] {
			s := &sum[c]
			s.ns, s.calls, s.attempts = s.ns+t.ns, s.calls+t.calls, s.attempts+t.attempts
			s.ww, s.valid = s.ww+t.ww, s.valid+t.valid
			ns += t.ns
			aborts += t.attempts - t.calls
		}
	}
	for c, s := range sum {
		if s.calls == 0 {
			continue
		}
		name, calls := mixClasses[c], float64(s.calls)
		b.ReportMetric(float64(s.ns)/float64(ns), name+"-time-share")
		b.ReportMetric(float64(s.attempts)/calls, name+"-attempts/call")
		b.ReportMetric(float64(s.ww)/calls, name+"-ww-aborts/call")
		b.ReportMetric(float64(s.valid)/calls, name+"-valid-aborts/call")
	}
	ops := float64(2 * b.N)
	b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
	b.ReportMetric(float64(aborts)/ops, "aborts/op")
}
