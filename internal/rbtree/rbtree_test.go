package rbtree

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"swisstm/internal/cm"
	"swisstm/internal/rstm"
	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
)

func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"rstm":    func() stm.STM { return rstm.New(rstm.Config{Manager: cm.NewPolka()}) },
	}
}

func TestBasicOps(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			e := factory()
			th := e.NewThread(0)
			tree := New(th)
			stm.AtomicVoid(th, func(tx stm.Tx) {
				if !tree.Insert(tx, 5, 50, 0) {
					t.Error("insert 5 reported existing")
				}
				tree.Insert(tx, 3, 30, 0)
				tree.Insert(tx, 8, 80, 0)
				if v, ok := tree.Lookup(tx, 3); !ok || v != 30 {
					t.Errorf("lookup 3 = (%d,%v)", v, ok)
				}
				if _, ok := tree.Lookup(tx, 4); ok {
					t.Error("lookup 4 should miss")
				}
				if tree.Insert(tx, 5, 55, 0) {
					t.Error("insert 5 again should report existing")
				}
				if v, _ := tree.Lookup(tx, 5); v != 55 {
					t.Error("value not updated")
				}
				if tree.Delete(tx, 3) == 0 {
					t.Error("delete 3 failed")
				}
				if _, ok := tree.Lookup(tx, 3); ok {
					t.Error("3 still present after delete")
				}
				if tree.Delete(tx, 3) != 0 {
					t.Error("double delete succeeded")
				}
				tree.CheckInvariants(tx)
			})
		})
	}
}

// TestModelSequential compares the tree against a map model under long
// random operation sequences, checking red-black invariants throughout.
func TestModelSequential(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			e := factory()
			th := e.NewThread(0)
			tree := New(th)
			model := map[stm.Word]stm.Word{}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 4000; i++ {
				key := stm.Word(rng.Intn(200) + 1)
				val := stm.Word(rng.Intn(1000))
				switch rng.Intn(3) {
				case 0:
					stm.AtomicVoid(th, func(tx stm.Tx) { tree.Insert(tx, key, val, 0) })
					model[key] = val
				case 1:
					var got bool
					stm.AtomicVoid(th, func(tx stm.Tx) { got = tree.Delete(tx, key) != 0 })
					_, want := model[key]
					if got != want {
						t.Fatalf("op %d: delete(%d) = %v, model %v", i, key, got, want)
					}
					delete(model, key)
				case 2:
					var gv stm.Word
					var gok bool
					stm.AtomicVoid(th, func(tx stm.Tx) { gv, gok = tree.Lookup(tx, key) })
					wv, wok := model[key]
					if gok != wok || (gok && gv != wv) {
						t.Fatalf("op %d: lookup(%d) = (%d,%v), model (%d,%v)", i, key, gv, gok, wv, wok)
					}
				}
				if i%500 == 0 {
					stm.AtomicVoid(th, func(tx stm.Tx) {
						if n := tree.CheckInvariants(tx); n != len(model) {
							t.Fatalf("op %d: size %d, model %d", i, n, len(model))
						}
					})
				}
			}
			stm.AtomicVoid(th, func(tx stm.Tx) {
				if n := tree.CheckInvariants(tx); n != len(model) {
					t.Fatalf("final size %d, model %d", n, len(model))
				}
				for k, v := range model {
					if gv, ok := tree.Lookup(tx, k); !ok || gv != v {
						t.Fatalf("final lookup(%d) = (%d,%v), want (%d,true)", k, gv, ok, v)
					}
				}
			})
		})
	}
}

// TestQuickInsertDelete is a property-based check (testing/quick): for any
// random key multiset, inserting then deleting every key leaves an empty,
// invariant-respecting tree.
func TestQuickInsertDelete(t *testing.T) {
	factory := engines()["swisstm"]
	check := func(keys []uint16) bool {
		e := factory()
		th := e.NewThread(0)
		tree := New(th)
		seen := map[stm.Word]bool{}
		for _, k := range keys {
			key := stm.Word(k) + 1
			var fresh bool
			stm.AtomicVoid(th, func(tx stm.Tx) { fresh = tree.Insert(tx, key, key*2, 0) })
			if fresh == seen[key] {
				return false
			}
			seen[key] = true
		}
		ok := true
		stm.AtomicVoid(th, func(tx stm.Tx) {
			if tree.CheckInvariants(tx) != len(seen) {
				ok = false
			}
		})
		if !ok {
			return false
		}
		for k := range seen {
			var deleted bool
			stm.AtomicVoid(th, func(tx stm.Tx) { deleted = tree.Delete(tx, k) != 0 })
			if !deleted {
				return false
			}
			stm.AtomicVoid(th, func(tx stm.Tx) { tree.CheckInvariants(tx) })
		}
		final := -1
		stm.AtomicVoid(th, func(tx stm.Tx) { final = tree.CheckInvariants(tx) })
		return final == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixed runs the paper's microbenchmark shape (lookups +
// inserts + deletes) on every engine and validates the invariants at the
// end — the correctness side of Figure 5.
func TestConcurrentMixed(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			e := factory()
			setup := e.NewThread(0)
			tree := New(setup)
			const keyRange = 512
			stm.AtomicVoid(setup, func(tx stm.Tx) {
				for k := stm.Word(1); k <= keyRange; k += 2 {
					tree.Insert(tx, k, k, 0)
				}
			})
			var wg sync.WaitGroup
			threads := 4
			for i := 0; i < threads; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := e.NewThread(id + 1)
					rng := rand.New(rand.NewSource(int64(id) + 7))
					for n := 0; n < 1500; n++ {
						key := stm.Word(rng.Intn(keyRange) + 1)
						switch rng.Intn(10) {
						case 0:
							stm.AtomicVoid(th, func(tx stm.Tx) { tree.Insert(tx, key, key, 0) })
						case 1:
							stm.AtomicVoid(th, func(tx stm.Tx) { tree.Delete(tx, key) })
						default:
							stm.AtomicVoid(th, func(tx stm.Tx) { tree.Lookup(tx, key) })
						}
					}
				}(i)
			}
			wg.Wait()
			stm.AtomicVoid(setup, func(tx stm.Tx) { tree.CheckInvariants(tx) })
		})
	}
}
