// The shop example is a small reservation service in the style of
// STAMP's vacation: an inventory of items indexed by a transactional
// red-black tree, concurrent customers reserving and returning items,
// and an invariant — stock is conserved — checked live. It demonstrates
// composing a non-trivial transactional data structure (the tree) with
// application logic in a single atomic block.
package main

import (
	"fmt"
	"sync"

	"swisstm/internal/rbtree"
	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/util"
)

const (
	itTotal uint32 = iota
	itAvail
	itFields
)

func main() {
	engine := swisstm.New(swisstm.Config{ArenaWords: 1 << 20})
	setup := engine.NewThread(0)
	inventory := rbtree.New(setup)

	const items = 512
	const stockPer = 5
	for id := 1; id <= items; id++ {
		id := id
		stm.AtomicVoid(setup, func(tx stm.Tx) {
			it := tx.NewObject(itFields)
			tx.WriteField(it, itTotal, stockPer)
			tx.WriteField(it, itAvail, stockPer)
			inventory.Insert(tx, stm.Word(id), stm.Word(it), 0)
		})
	}

	// Customers reserve an item if available and return it later; each
	// holds at most one item (stored locally).
	var wg sync.WaitGroup
	reservedTotal := make([]int, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := engine.NewThread(id + 1)
			rng := util.NewRand(uint64(id)*17 + 3)
			holding := stm.Handle(0)
			for n := 0; n < 20_000; n++ {
				if holding == 0 {
					key := stm.Word(rng.Intn(items) + 1)
					// The reservation returns the reserved item's handle
					// (0 when out of stock) as the transaction's value.
					holding = stm.Atomic(th, func(tx stm.Tx) stm.Handle {
						v, ok := inventory.Lookup(tx, key)
						if !ok {
							return 0
						}
						it := stm.Handle(v)
						avail := tx.ReadField(it, itAvail)
						if avail == 0 {
							return 0
						}
						tx.WriteField(it, itAvail, avail-1)
						return it
					})
					if holding != 0 {
						reservedTotal[id]++
					}
				} else {
					it := holding
					stm.AtomicVoid(th, func(tx stm.Tx) {
						tx.WriteField(it, itAvail, tx.ReadField(it, itAvail)+1)
					})
					holding = 0
				}
			}
			// Return anything still held so the final audit balances.
			if holding != 0 {
				it := holding
				stm.AtomicVoid(th, func(tx stm.Tx) {
					tx.WriteField(it, itAvail, tx.ReadField(it, itAvail)+1)
				})
			}
		}(c)
	}
	wg.Wait()

	// Audit: every item's stock must be back to its total. The audit is
	// a declared read-only transaction returning both counts as one
	// value.
	audit := stm.AtomicRO(setup, func(tx stm.TxRO) [2]int {
		var bad, total int
		inventory.Visit(tx, func(_, v stm.Word) {
			it := stm.Handle(v)
			total++
			if tx.ReadField(it, itAvail) != tx.ReadField(it, itTotal) {
				bad++
			}
		})
		return [2]int{bad, total}
	})
	bad, total := audit[0], audit[1]
	reservations := 0
	for _, r := range reservedTotal {
		reservations += r
	}
	fmt.Printf("%d items, %d successful reservations, %d stock mismatches after returns\n",
		total, reservations, bad)
	if bad != 0 {
		panic("stock conservation violated")
	}
}
