package rbtree

import (
	"fmt"
	"sync"
	"testing"

	"swisstm/internal/cm"
	"swisstm/internal/rstm"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// TestBulkTxStress runs bench7's structure-mod shape — transactions that
// delete and insert many keys at once plus a hot-spot counter — against
// concurrent readers on RSTM, with periodic invariant checks.
func TestBulkTxStress(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second stress test")
	}
	for round := 0; round < 5; round++ {
		e := rstm.New(rstm.Config{Acquire: rstm.Eager, Manager: cm.NewPolka()})
		setup := e.NewThread(0)
		tree := New(setup)
		var counter stm.Handle
		stm.AtomicVoid(setup, func(tx stm.Tx) { counter = tx.NewObject(2) })
		const groups = 24
		const perGroup = 10
		for g := 0; g < groups; g++ {
			g := g
			stm.AtomicVoid(setup, func(tx stm.Tx) {
				for i := 0; i < perGroup; i++ {
					tree.Insert(tx, stm.Word(g*1000+i+1), 1, 0)
				}
			})
		}
		var wg sync.WaitGroup
		fail := make(chan string, 16)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						fail <- fmt.Sprint(r)
					}
				}()
				th := e.NewThread(id + 1)
				rng := util.NewRand(uint64(id)*131 + uint64(round) + 1)
				next := stm.Word(1000000 + id*100000)
				for n := 0; n < 1500; n++ {
					if rng.Intn(100) < 20 {
						// SM-like: replace a whole group in one tx.
						g := rng.Intn(groups)
						fresh := next
						next += perGroup
						stm.AtomicVoid(th, func(tx stm.Tx) {
							// Hot-spot counter: every SM transaction
							// conflicts with every other (bench7's id
							// counters do the same).
							tx.WriteField(counter, 0, tx.ReadField(counter, 0)+1)
							for i := 0; i < perGroup; i++ {
								tree.Delete(tx, stm.Word(g*1000+i+1))
							}
							for i := stm.Word(0); i < perGroup; i++ {
								tree.Insert(tx, fresh+i, 1, 0)
							}
							tx.WriteField(counter, 1, tx.ReadField(counter, 1)+1)
						})
					} else {
						k := stm.Word(rng.Intn(groups*1000) + 1)
						stm.AtomicVoid(th, func(tx stm.Tx) { tree.Lookup(tx, k) })
					}
					if n%500 == 499 {
						stm.AtomicVoid(th, func(tx stm.Tx) { tree.CheckInvariants(tx) })
					}
				}
			}(w)
		}
		wg.Wait()
		select {
		case msg := <-fail:
			t.Fatalf("round %d: %s", round, msg)
		default:
		}
		stm.AtomicVoid(setup, func(tx stm.Tx) { tree.CheckInvariants(tx) })
	}
}
