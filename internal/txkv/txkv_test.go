package txkv_test

import (
	"sync"
	"testing"

	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
	"swisstm/internal/txkv"
	"swisstm/internal/util"
)

// engineSpecs is the four-engine line-up every txkv test runs on.
var engineSpecs = []harness.EngineSpec{
	{Kind: "swisstm"},
	{Kind: "tl2"},
	{Kind: "tinystm"},
	{Kind: "rstm"},
}

// forEachEngine runs fn as a subtest per engine with a fresh instance.
func forEachEngine(t *testing.T, fn func(t *testing.T, e stm.STM)) {
	for _, spec := range engineSpecs {
		spec := spec
		t.Run(spec.DisplayName(), func(t *testing.T) { fn(t, spec.New()) })
	}
}

// smallCfg forces long probe sequences: 2 shards × 64 slots run at
// ~80% load with the 100-key tests, so probes regularly cross claimed
// and tombstoned slots.
var smallCfg = txkv.Config{Shards: 2, Slots: 64}

func TestBasicOps(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		s := txkv.New(th, smallCfg)
		const n = 100
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for k := stm.Word(1); k <= n; k++ {
				if !s.Put(tx, k, k*10) {
					t.Fatalf("Put(%d) reported existing key on first insert", k)
				}
			}
		})
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for k := stm.Word(1); k <= n; k++ {
				v, ok := s.Get(tx, k)
				if !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d,%v; want %d,true", k, v, ok, k*10)
				}
			}
			if _, ok := s.Get(tx, n+1); ok {
				t.Fatal("Get of absent key returned ok")
			}
			if got := s.Len(tx); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
		})
		// Overwrite.
		stm.AtomicVoid(th, func(tx stm.Tx) {
			if s.Put(tx, 7, 777) {
				t.Fatal("Put of existing key reported a fresh insert")
			}
			if v, _ := s.Get(tx, 7); v != 777 {
				t.Fatalf("overwritten value = %d, want 777", v)
			}
		})
		// Delete every even key (head, middle and tail positions in the
		// 4 chains), then verify membership.
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for k := stm.Word(2); k <= n; k += 2 {
				if !s.Delete(tx, k) {
					t.Fatalf("Delete(%d) missed a present key", k)
				}
			}
			if s.Delete(tx, n+1) {
				t.Fatal("Delete of absent key reported success")
			}
		})
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for k := stm.Word(1); k <= n; k++ {
				_, ok := s.Get(tx, k)
				if want := k%2 == 1; ok != want {
					t.Fatalf("after deletes, Get(%d) present=%v, want %v", k, ok, want)
				}
			}
			if got := s.Len(tx); got != n/2 {
				t.Fatalf("Len after deletes = %d, want %d", got, n/2)
			}
		})
	})
}

func TestCAS(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		s := txkv.New(th, smallCfg)
		stm.AtomicVoid(th, func(tx stm.Tx) {
			s.Put(tx, 1, 10)
			if s.CAS(tx, 1, 11, 20) {
				t.Fatal("CAS with wrong expectation succeeded")
			}
			if v, _ := s.Get(tx, 1); v != 10 {
				t.Fatalf("failed CAS wrote: value = %d, want 10", v)
			}
			if !s.CAS(tx, 1, 10, 20) {
				t.Fatal("CAS with right expectation failed")
			}
			if v, _ := s.Get(tx, 1); v != 20 {
				t.Fatalf("value after CAS = %d, want 20", v)
			}
			if s.CAS(tx, 2, 0, 1) {
				t.Fatal("CAS on absent key succeeded")
			}
		})
	})
}

func TestTransferSemantics(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		s := txkv.New(th, smallCfg)
		stm.AtomicVoid(th, func(tx stm.Tx) {
			s.Put(tx, 1, 10)
			s.Put(tx, 2, 0)
			s.Put(tx, 3, 0)
			if !s.Transfer(tx, []stm.Word{1, 2, 3}, 3) {
				t.Fatal("funded transfer failed")
			}
			for k, want := range map[stm.Word]stm.Word{1: 4, 2: 3, 3: 3} {
				if v, _ := s.Get(tx, k); v != want {
					t.Fatalf("after transfer, key %d = %d, want %d", k, v, want)
				}
			}
			if s.Transfer(tx, []stm.Word{1, 2, 3}, 3) {
				t.Fatal("underfunded transfer succeeded")
			}
			if s.Transfer(tx, []stm.Word{1, 2, 2}, 1) {
				t.Fatal("transfer with duplicate keys succeeded")
			}
			if s.Transfer(tx, []stm.Word{1, 99}, 1) {
				t.Fatal("transfer touching an absent key succeeded")
			}
			if s.Transfer(tx, []stm.Word{1}, 1) {
				t.Fatal("single-key transfer succeeded")
			}
			if got := s.SumAll(tx); got != 10 {
				t.Fatalf("sum after no-op transfers = %d, want 10", got)
			}
		})
	})
}

func TestSumShardPartitionsSumAll(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		s := txkv.New(th, txkv.Config{Shards: 4, Slots: 128})
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for k := stm.Word(1); k <= 200; k++ {
				s.Put(tx, k, k)
			}
		})
		stm.AtomicVoid(th, func(tx stm.Tx) {
			var byShard stm.Word
			for si := 0; si < s.Shards(); si++ {
				byShard += s.SumShard(tx, si)
			}
			if all := s.SumAll(tx); byShard != all {
				t.Fatalf("shard sums total %d, SumAll %d", byShard, all)
			}
			if want := stm.Word(200 * 201 / 2); byShard != want {
				t.Fatalf("total %d, want %d", byShard, want)
			}
		})
	})
}

// TestTransferInvariantConcurrent is the cross-engine balance oracle:
// workers hammer multi-key transfers (plus interleaved scans) on a
// small skewed key space and the total balance must come out exact.
// The Makefile runs this package under -race, so it doubles as the
// engine-level data-race probe for the KV path.
func TestTransferInvariantConcurrent(t *testing.T) {
	const (
		workers = 4
		keys    = 64
		opsEach = 2000
	)
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th0 := e.NewThread(0)
		s := txkv.New(th0, txkv.Config{Shards: 4, Slots: 32})
		stm.AtomicVoid(th0, func(tx stm.Tx) {
			for k := stm.Word(1); k <= keys; k++ {
				s.Put(tx, k, 100)
			}
		})
		zipf := util.NewZipf(keys, 0.9)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := e.NewThread(w + 1)
				rng := util.NewRand(uint64(w)*31 + 7)
				buf := make([]stm.Word, 0, 3)
				for i := 0; i < opsEach; i++ {
					if i%64 == 63 { // interleave long aggregate readers
						stm.AtomicVoid(th, func(tx stm.Tx) { s.SumShard(tx, rng.Intn(s.Shards())) })
						continue
					}
					buf = buf[:0]
					for len(buf) < 3 {
						c := stm.Word(zipf.Next(rng) + 1)
						dup := false
						for _, e := range buf {
							if e == c {
								dup = true
								break
							}
						}
						if !dup {
							buf = append(buf, c)
						}
					}
					stm.AtomicVoid(th, func(tx stm.Tx) { s.Transfer(tx, buf, 1) })
				}
			}(w)
		}
		wg.Wait()
		stm.AtomicVoid(th0, func(tx stm.Tx) {
			if got, want := s.SumAll(tx), stm.Word(keys*100); got != want {
				t.Fatalf("balance invariant broken: total %d, want %d", got, want)
			}
			if n := s.Len(tx); n != keys {
				t.Fatalf("key population changed: %d, want %d", n, keys)
			}
		})
	})
}

// TestGenMixesChecked runs every named mix end to end through the
// harness on every engine and requires the post-run oracles to pass.
func TestGenMixesChecked(t *testing.T) {
	for _, mix := range txkv.Mixes {
		mix := mix
		t.Run(mix.Name, func(t *testing.T) {
			for _, spec := range engineSpecs {
				spec := spec
				t.Run(spec.DisplayName(), func(t *testing.T) {
					mk := func(seed uint64) harness.Workload {
						return txkv.NewGen(txkv.GenConfig{Mix: mix, Keys: 256, Zipf: 0.9}).Workload()
					}
					recs, err := harness.RepeatThroughput(spec, mk, harness.RunConfig{
						Experiment: "txkv-test", Workload: "txkv/" + mix.Name,
						Threads: 4, FixedOps: 500, Repeats: 1, Seed: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range recs {
						if !r.CheckedOK || r.Ops != 4*500 {
							t.Fatalf("bad record: %+v", r)
						}
					}
				})
			}
		})
	}
}

// TestGenSeededDeterminism: two seeded single-thread runs must leave
// bit-identical stores and identical op counts — the reproducibility
// half of the acceptance criteria.
func TestGenSeededDeterminism(t *testing.T) {
	snapshot := func() (map[stm.Word]stm.Word, uint64) {
		var (
			g   *txkv.Gen
			eng stm.STM
		)
		mk := func(seed uint64) harness.Workload {
			g = txkv.NewGen(txkv.GenConfig{Mix: txkv.UpdateHeavy, Keys: 128, Zipf: 0.99})
			w := g.Workload()
			setup := w.Setup
			w.Setup = func(e stm.STM) error { eng = e; return setup(e) }
			return w
		}
		recs, err := harness.RepeatThroughput(harness.EngineSpec{Kind: "swisstm"}, mk, harness.RunConfig{
			Experiment: "txkv-test", Workload: "txkv/update-heavy",
			Threads: 1, FixedOps: 400, Repeats: 1, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		final := stm.AtomicRO(eng.NewThread(0), func(tx stm.TxRO) map[stm.Word]stm.Word {
			m := map[stm.Word]stm.Word{}
			g.Store().ForEach(tx, func(k, v stm.Word) bool { m[k] = v; return true })
			return m
		})
		return final, recs[0].Ops
	}
	finalA, opsA := snapshot()
	finalB, opsB := snapshot()
	if opsA != opsB {
		t.Fatalf("seeded runs measured different op counts: %d vs %d", opsA, opsB)
	}
	if len(finalA) != len(finalB) {
		t.Fatalf("seeded runs left %d vs %d keys", len(finalA), len(finalB))
	}
	for k, v := range finalA {
		if finalB[k] != v {
			t.Fatalf("seeded runs diverged at key %d: %#x vs %#x", k, v, finalB[k])
		}
	}
}

func TestMixesValid(t *testing.T) {
	for _, m := range txkv.Mixes {
		if err := m.Valid(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if _, ok := txkv.MixByName("read-heavy"); !ok {
		t.Error("MixByName missed read-heavy")
	}
	if _, ok := txkv.MixByName("nope"); ok {
		t.Error("MixByName resolved an unknown mix")
	}
}

// TestTransferZeroAlloc is the allocation gate for the benchmark's hot
// operation: a warm 4-key transfer through stm.Atomic allocates nothing —
// Transfer's scratch is on its stack, the engines' logs are pooled.
// Object-based RSTM clones every object it acquires, so it is held to
// what overwriting the same four keys allocates: the engine's own cost,
// nothing from Transfer.
func TestTransferZeroAlloc(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		s := txkv.NewInitialized(th, 64, 1<<40)
		keys := []stm.Word{3, 17, 42, 60}
		body := func(tx stm.Tx) bool { return s.Transfer(tx, keys, 1) }
		transfer := func() {
			if !stm.Atomic(th, body) {
				t.Fatal("funded transfer failed")
			}
		}
		if e.Arena() != nil {
			stmtest.ZeroAllocLoop(t, e.Name()+" 4-key transfer", 100, transfer)
			return
		}
		puts := func(tx stm.Tx) bool {
			for _, k := range keys {
				s.Put(tx, k, 1<<40)
			}
			return true
		}
		engine := testing.AllocsPerRun(200, func() { stm.Atomic(th, puts) })
		if n := testing.AllocsPerRun(200, transfer); n > engine {
			t.Errorf("%s 4-key transfer: %.2f allocs/op, four overwrites of the same keys %.2f", e.Name(), n, engine)
		}
	})
}

// TestTransferWide drives a transfer wider than the stack scratch (the
// heap-fallback path): same result, balance conserved, and a duplicate or
// absent key is still rejected before any write.
func TestTransferWide(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		s := txkv.NewInitialized(th, 16, 100)
		keys := []stm.Word{1, 2, 3, 4, 5, 6, 7, 8, 9}
		stm.AtomicVoid(th, func(tx stm.Tx) {
			if !s.Transfer(tx, keys, 5) {
				t.Fatal("funded 9-key transfer failed")
			}
			if v, _ := s.Get(tx, 1); v != 100-8*5 {
				t.Fatalf("source = %d, want %d", v, 100-8*5)
			}
			for _, k := range keys[1:] {
				if v, _ := s.Get(tx, k); v != 105 {
					t.Fatalf("key %d = %d, want 105", k, v)
				}
			}
			dup := append(append([]stm.Word{}, keys[:8]...), 3)
			absent := append(append([]stm.Word{}, keys[:8]...), 99)
			if s.Transfer(tx, dup, 1) || s.Transfer(tx, absent, 1) {
				t.Fatal("9-key transfer with a duplicate or absent key succeeded")
			}
			if v, _ := s.Get(tx, 1); v != 100-8*5 {
				t.Fatalf("rejected transfer wrote the source: %d", v)
			}
			if got := s.SumAll(tx); got != 16*100 {
				t.Fatalf("sum = %d, want %d", got, 16*100)
			}
		})
	})
}
