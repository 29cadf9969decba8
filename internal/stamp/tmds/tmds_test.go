package tmds

import (
	"sync"
	"testing"
	"testing/quick"

	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
)

func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 18, TableBits: 12}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 18, TableBits: 12}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 18, TableBits: 12}) },
	}
}

func TestMapModel(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			e := factory()
			th := e.NewThread(0)
			check := func(ops []uint16) bool {
				// Fresh map and model per property invocation.
				m := stm.Atomic(th, func(tx stm.Tx) *Map { return NewMap(tx, 16) })
				model := map[stm.Word]stm.Word{}
				for _, op := range ops {
					k := stm.Word(op % 61)
					v := stm.Word(op)
					ok := true
					switch op % 2 {
					case 0:
						fresh := stm.Atomic(th, func(tx stm.Tx) bool { return m.Put(tx, k, v) })
						_, had := model[k]
						ok = fresh == !had
						model[k] = v
					case 1:
						res := stm.Atomic(th, func(tx stm.Tx) [2]stm.Word {
							got, found := m.Get(tx, k)
							f := stm.Word(0)
							if found {
								f = 1
							}
							return [2]stm.Word{got, f}
						})
						got, found := res[0], res[1] == 1
						want, had := model[k]
						ok = found == had && (!found || got == want)
					}
					if !ok {
						return false
					}
				}
				count := 0
				stm.AtomicVoid(th, func(tx stm.Tx) {
					count = 0
					m.Visit(tx, func(k, v stm.Word) { count++ })
				})
				return count == len(model)
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQueueFIFO(t *testing.T) {
	e := engines()["tinystm"]()
	th := e.NewThread(0)
	q := stm.Atomic(th, func(tx stm.Tx) *Queue { return NewQueue(tx) })
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for i := stm.Word(1); i <= 10; i++ {
			q.Enqueue(tx, i)
		}
	})
	stm.AtomicVoid(th, func(tx stm.Tx) {
		if q.Len(tx) != 10 {
			t.Fatalf("len = %d", q.Len(tx))
		}
		for i := stm.Word(1); i <= 10; i++ {
			v, ok := q.Dequeue(tx)
			if !ok || v != i {
				t.Fatalf("dequeue %d: got (%d,%v)", i, v, ok)
			}
		}
		if _, ok := q.Dequeue(tx); ok {
			t.Fatal("dequeue from empty queue succeeded")
		}
	})
}

// TestQueueConcurrentDrain: N producers + N consumers; every element is
// consumed exactly once.
func TestQueueConcurrentDrain(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			e := factory()
			setup := e.NewThread(0)
			q := stm.Atomic(setup, func(tx stm.Tx) *Queue { return NewQueue(tx) })
			const items = 500
			stm.AtomicVoid(setup, func(tx stm.Tx) {
				for i := 1; i <= items; i++ {
					q.Enqueue(tx, stm.Word(i))
				}
			})
			var mu sync.Mutex
			got := map[stm.Word]int{}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := e.NewThread(id + 1)
					for {
						r := stm.Atomic(th, func(tx stm.Tx) [2]stm.Word {
							v, ok := q.Dequeue(tx)
							if !ok {
								return [2]stm.Word{0, 0}
							}
							return [2]stm.Word{v, 1}
						})
						if r[1] == 0 {
							return
						}
						v := r[0]
						mu.Lock()
						got[v]++
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if len(got) != items {
				t.Fatalf("consumed %d distinct items, want %d", len(got), items)
			}
			for v, n := range got {
				if n != 1 {
					t.Fatalf("item %d consumed %d times", v, n)
				}
			}
		})
	}
}

func TestListPushVisit(t *testing.T) {
	e := engines()["tl2"]()
	th := e.NewThread(0)
	l := stm.Atomic(th, func(tx stm.Tx) *List { return NewList(tx) })
	stm.AtomicVoid(th, func(tx stm.Tx) {
		l.Push(tx, 1)
		l.Push(tx, 2)
		l.Push(tx, 3)
	})
	stm.AtomicVoid(th, func(tx stm.Tx) {
		var order []stm.Word
		l.Visit(tx, func(v stm.Word) { order = append(order, v) })
		if len(order) != 3 || order[0] != 3 || order[1] != 2 || order[2] != 1 {
			t.Fatalf("visit order %v, want [3 2 1]", order)
		}
	})
}
