package rbtree

import (
	"fmt"
	"sync"
	"testing"

	"swisstm/internal/cm"
	"swisstm/internal/rstm"
	"swisstm/internal/stm"
)

// TestRSTMHighContention hammers a small tree on every RSTM variant with
// periodic invariant checks — a regression test for snapshot consistency
// bugs that only structural workloads expose.
func TestRSTMHighContention(t *testing.T) {
	for _, acq := range []rstm.AcquireMode{rstm.Eager, rstm.Lazy} {
		acq := acq
		t.Run(fmt.Sprint(acq), func(t *testing.T) {
			e := rstm.New(rstm.Config{Acquire: acq, Manager: cm.NewPolka()})
			setup := e.NewThread(0)
			tree := New(setup)
			const keyRange = 48
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := e.NewThread(id + 1)
					seed := uint64(id)*2654435761 + 17
					for n := 0; n < 4000; n++ {
						seed = seed*6364136223846793005 + 1
						key := stm.Word(seed>>33)%keyRange + 1
						switch (seed >> 13) % 4 {
						case 0:
							stm.AtomicVoid(th, func(tx stm.Tx) { tree.Insert(tx, key, key, 0) })
						case 1:
							stm.AtomicVoid(th, func(tx stm.Tx) { tree.Delete(tx, key) })
						default:
							stm.AtomicVoid(th, func(tx stm.Tx) { tree.Lookup(tx, key) })
						}
						if n%1000 == 999 {
							stm.AtomicVoid(th, func(tx stm.Tx) { tree.CheckInvariants(tx) })
						}
					}
				}(w)
			}
			wg.Wait()
			stm.AtomicVoid(setup, func(tx stm.Tx) { tree.CheckInvariants(tx) })
		})
	}
}
