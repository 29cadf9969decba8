package bench7

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"swisstm/internal/cm"
	"swisstm/internal/rstm"
	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
	"swisstm/internal/util"
)

// testConfig keeps the structure small so tests stay fast.
func testConfig(roPct int) Config {
	return Config{Levels: 3, Fanout: 3, CompPool: 16, AtomicPerComp: 8,
		ConnPerPart: 3, DocWords: 4, ReadOnlyPct: roPct}
}

func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"rstm":    func() stm.STM { return rstm.New(rstm.Config{Manager: cm.NewSerializer()}) },
	}
}

// TestZeroAllocOps extends the allocation-regression gate of
// DESIGN.md §7.2 to the bench7 operation loop itself: with the
// pre-bound per-thread op tables, a warmed 100%-read-only op stream —
// index lookups, graph walks, date queries, long traversals — must
// allocate nothing on the word-based engines, and nothing on RSTM
// either (invisible read-only transactions reuse their attempt
// descriptor). The op dispatch used to build a fresh closure per call,
// the last remaining allocation per operation in this package.
func TestZeroAllocOps(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			b := Setup(factory(), testConfig(100))
			o := b.NewOps(b.E.NewThread(1), util.NewRand(11))
			stmtest.ZeroAllocLoop(t, name+"/bench7-readonly", 300, o.Op)
		})
	}
}

func TestSetupInvariants(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			b := Setup(factory(), testConfig(90))
			if len(b.Bases) != 9 { // fanout^(levels-1) = 3^2
				t.Fatalf("base assemblies = %d, want 9", len(b.Bases))
			}
			if err := b.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEachOperation(t *testing.T) {
	b := Setup(engines()["swisstm"](), testConfig(90))
	o := b.NewOps(b.E.NewThread(1), util.NewRand(5))
	ops := map[string]func(){
		"shortRead":      func() { o.ShortRead() },
		"shortUpdate":    o.ShortUpdate,
		"readComponent":  func() { o.ReadComponent() },
		"updateComp":     o.UpdateComponent,
		"queryDates":     func() { o.QueryDates() },
		"longTraversal":  func() { o.LongTraversal() },
		"longTravUpdate": o.LongTraversalUpdate,
		"structureMod":   o.StructureMod,
	}
	for name, op := range ops {
		for i := 0; i < 10; i++ {
			op()
		}
		if err := b.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestStructureModReplacesComposite(t *testing.T) {
	b := Setup(engines()["swisstm"](), testConfig(90))
	th := b.E.NewThread(1)
	rng := util.NewRand(7)
	// Count live composites before and after: SM removes one and adds one
	// when the slot was occupied, so the total in the index stays equal.
	count := func() int {
		return stm.AtomicRO(th, func(tx stm.TxRO) int {
			return b.CompIdx.RangeCount(tx, 0, ^stm.Word(0)>>1)
		})
	}
	// Note: multiple base-assembly slots may share one composite, in which
	// case replacing one slot removes a composite still referenced
	// elsewhere from the index; Check() would catch that. With distinct
	// slots the count is preserved.
	before := count()
	o := b.NewOps(th, rng)
	for i := 0; i < 5; i++ {
		o.StructureMod()
	}
	after := count()
	if after < before-5 || after > before+5 {
		t.Fatalf("composite count moved from %d to %d", before, after)
	}
}

func TestConcurrentMixedWorkloads(t *testing.T) {
	for name, factory := range engines() {
		for _, ro := range []int{90, 60, 10} {
			name := name
			ro := ro
			t.Run(name+"/"+map[int]string{90: "read", 60: "rw", 10: "write"}[ro], func(t *testing.T) {
				b := Setup(factory(), testConfig(ro))
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						o := b.NewOps(b.E.NewThread(id+1), util.NewRand(uint64(id)*77+1))
						for n := 0; n < 120; n++ {
							o.Op()
						}
					}(i)
				}
				wg.Wait()
				if err := b.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// wordEngines are engines() without RSTM, whose objects are Go values:
// the word engines' arenas and allocations are what the recycling tests
// measure.
func wordEngines() map[string]func() stm.STM {
	es := engines()
	delete(es, "rstm")
	return es
}

// TestReadWriteMixAllocs holds the warmed 60 % read-only mix, structure
// modifications included, to at most one heap allocation per hundred
// operations. It counts the MemStats.Mallocs delta over many operations:
// testing.AllocsPerRun's integer mean would read 0.06 per op as 0.
func TestReadWriteMixAllocs(t *testing.T) {
	const ops = 20000
	for name, factory := range wordEngines() {
		t.Run(name, func(t *testing.T) {
			b := Setup(factory(), testConfig(60))
			o := b.NewOps(b.E.NewThread(1), util.NewRand(13))
			for i := 0; i < 2000; i++ {
				o.Op()
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < ops; i++ {
				o.Op()
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; float64(n)/ops > 0.01 {
				t.Errorf("%d allocations over %d operations, want at most %d", n, ops, ops/100)
			}
			if err := b.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStructureModArenaBounded runs structure modifications alone. One
// builds fresh storage only when the composite it replaces is still
// shared, and the new composite is never shared, so the arena grows by
// at most one composite, with its index nodes, per base-assembly slot.
func TestStructureModArenaBounded(t *testing.T) {
	for name, factory := range wordEngines() {
		t.Run(name, func(t *testing.T) {
			b := Setup(factory(), testConfig(60))
			cfg := b.Cfg
			o := b.NewOps(b.E.NewThread(1), util.NewRand(17))
			before := b.E.Arena().Used()
			for i := 0; i < 1000; i++ {
				o.StructureMod()
			}
			// A composite, its document, its parts array, its parts and
			// the 6-word index nodes of its parts, id and date.
			perComp := int(cpFields) + 1 + cfg.DocWords + cfg.AtomicPerComp*(5+cfg.ConnPerPart) +
				(cfg.AtomicPerComp+2)*6
			limit := len(b.Bases) * compPerBase * perComp
			if grown := b.E.Arena().Used() - before; grown > limit {
				t.Errorf("1000 structure modifications grew the arena by %d words, want at most %d", grown, limit)
			}
			if err := b.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStructureModRollback rolls structure modifications back, rebuilt
// composites included, between committed ones: every write to the reused
// storage and index nodes is undone, so the structure stays whole.
func TestStructureModRollback(t *testing.T) {
	rollback := errors.New("rollback")
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			b := Setup(factory(), testConfig(60))
			th := b.E.NewThread(1)
			o := b.NewOps(th, util.NewRand(19))
			for i := 0; i < 20; i++ {
				o.base, o.slot = b.Bases[i%len(b.Bases)], baComp0
				_, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) {
					o.structMod(tx)
					return struct{}{}, rollback
				})
				if !errors.Is(err, rollback) {
					t.Fatalf("rolled-back structure modification: %v", err)
				}
				if err := b.Check(); err != nil {
					t.Fatalf("after rollback %d: %v", i, err)
				}
				o.StructureMod()
				if err := b.Check(); err != nil {
					t.Fatalf("after commit %d: %v", i, err)
				}
			}
		})
	}
}
