// Package vacation re-implements STAMP's vacation: a travel-reservation
// system whose database is four red-black trees (cars, flights, rooms,
// customers). Each client transaction queries several random resources
// and then reserves, cancels, or (as an administrator) updates prices —
// medium-length transactions over tree lookups with a few writes. The
// high-contention variant narrows the id range the queries hit.
package vacation

import (
	"fmt"

	"swisstm/internal/rbtree"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// Resource object fields.
const (
	rsTotal uint32 = iota
	rsAvail
	rsPrice
	rsFields
)

// Customer object fields: bill plus a fixed array of reservation slots
// (table*2^32|id entries, 0 = empty).
const (
	cuBill uint32 = iota
	cuSlot0
	maxResPerCustomer = 8
)

const nTables = 3 // cars, flights, rooms

// App is one vacation instance.
type App struct {
	high       bool
	nResources int
	nCustomers int
	nTasks     int
	queriesPer int
	queryRange int // ids queried fall in [1, queryRange]

	tables    [nTables]*rbtree.Tree
	customers *rbtree.Tree
	cursor    int64
	tasks     chan int
}

// New creates a vacation workload. high narrows the query range to 10% of
// the resources (STAMP's -q parameter), concentrating the contention.
func New(big, high bool) *App {
	a := &App{high: high, queriesPer: 4}
	if big {
		a.nResources, a.nCustomers, a.nTasks = 1024, 256, 8192
	} else {
		a.nResources, a.nCustomers, a.nTasks = 256, 64, 1024
	}
	if high {
		a.queryRange = a.nResources / 10
	} else {
		a.queryRange = a.nResources * 9 / 10
	}
	if a.queryRange < 4 {
		a.queryRange = 4
	}
	return a
}

// Name implements stamp.App.
func (a *App) Name() string {
	if a.high {
		return "vacation-high"
	}
	return "vacation-low"
}

// Bind implements stamp.App.
func (a *App) Bind(threads int) {
	a.tasks = make(chan int, a.nTasks)
	for i := 0; i < a.nTasks; i++ {
		a.tasks <- i
	}
	close(a.tasks)
}

// Setup implements stamp.App.
func (a *App) Setup(e stm.STM) error {
	th := e.NewThread(0)
	rng := util.NewRand(0xaca7)
	for t := 0; t < nTables; t++ {
		a.tables[t] = rbtree.New(th)
		for id := 1; id <= a.nResources; id++ {
			id := id
			stm.AtomicVoid(th, func(tx stm.Tx) {
				r := tx.NewObject(rsFields)
				total := stm.Word(2 + rng.Intn(6))
				tx.WriteField(r, rsTotal, total)
				tx.WriteField(r, rsAvail, total)
				tx.WriteField(r, rsPrice, stm.Word(100+rng.Intn(400)))
				a.tables[t].Insert(tx, stm.Word(id), stm.Word(r), 0)
			})
		}
	}
	a.customers = rbtree.New(th)
	for c := 1; c <= a.nCustomers; c++ {
		c := c
		stm.AtomicVoid(th, func(tx stm.Tx) {
			cu := tx.NewObject(cuSlot0 + maxResPerCustomer)
			a.customers.Insert(tx, stm.Word(c), stm.Word(cu), 0)
		})
	}
	return nil
}

// Work implements stamp.App: workers drain the task channel; each task is
// one client transaction.
func (a *App) Work(e stm.STM, th stm.Thread, worker, threads int, rng *util.Rand) {
	for range a.tasks {
		switch r := rng.Intn(100); {
		case r < 70:
			a.makeReservation(th, rng)
		case r < 85:
			a.cancelReservation(th, rng)
		default:
			a.updatePrices(th, rng)
		}
	}
}

// makeReservation is STAMP's "make reservation" client: query a few
// random resources per table, pick the cheapest available one, reserve
// it for a random customer.
func (a *App) makeReservation(th stm.Thread, rng *util.Rand) {
	custID := stm.Word(rng.Intn(a.nCustomers) + 1)
	table := rng.Intn(nTables)
	ids := make([]stm.Word, a.queriesPer)
	for i := range ids {
		ids[i] = stm.Word(rng.Intn(a.queryRange) + 1)
	}
	stm.AtomicVoid(th, func(tx stm.Tx) {
		bestID := stm.Word(0)
		var best stm.Handle
		bestPrice := ^stm.Word(0)
		for _, id := range ids {
			v, ok := a.tables[table].Lookup(tx, id)
			if !ok {
				continue
			}
			r := stm.Handle(v)
			if tx.ReadField(r, rsAvail) == 0 {
				continue
			}
			if p := tx.ReadField(r, rsPrice); p < bestPrice {
				bestPrice, bestID, best = p, id, r
			}
		}
		if bestID == 0 {
			return // nothing available: read-only transaction
		}
		cuV, ok := a.customers.Lookup(tx, custID)
		if !ok {
			return
		}
		cu := stm.Handle(cuV)
		// A free reservation slot is required.
		slot := uint32(0)
		for s := uint32(0); s < maxResPerCustomer; s++ {
			if tx.ReadField(cu, cuSlot0+s) == 0 {
				slot = cuSlot0 + s
				break
			}
		}
		if slot == 0 {
			return // customer fully booked
		}
		tx.WriteField(best, rsAvail, tx.ReadField(best, rsAvail)-1)
		tx.WriteField(cu, slot, stm.Word(table)<<32|bestID)
		tx.WriteField(cu, cuBill, tx.ReadField(cu, cuBill)+bestPrice)
	})
}

// cancelReservation drops a random reservation of a random customer.
func (a *App) cancelReservation(th stm.Thread, rng *util.Rand) {
	custID := stm.Word(rng.Intn(a.nCustomers) + 1)
	stm.AtomicVoid(th, func(tx stm.Tx) {
		cuV, ok := a.customers.Lookup(tx, custID)
		if !ok {
			return
		}
		cu := stm.Handle(cuV)
		for s := uint32(0); s < maxResPerCustomer; s++ {
			v := tx.ReadField(cu, cuSlot0+s)
			if v == 0 {
				continue
			}
			table := int(v >> 32)
			id := v & 0xffffffff
			rv, ok := a.tables[table].Lookup(tx, id)
			if !ok {
				return
			}
			r := stm.Handle(rv)
			tx.WriteField(r, rsAvail, tx.ReadField(r, rsAvail)+1)
			tx.WriteField(cu, cuSlot0+s, 0)
			tx.WriteField(cu, cuBill, tx.ReadField(cu, cuBill)-tx.ReadField(r, rsPrice))
			return
		}
	})
}

// updatePrices is the administrator transaction: re-price a few random
// resources in one table.
func (a *App) updatePrices(th stm.Thread, rng *util.Rand) {
	table := rng.Intn(nTables)
	ids := make([]stm.Word, 2)
	for i := range ids {
		ids[i] = stm.Word(rng.Intn(a.queryRange) + 1)
	}
	delta := stm.Word(rng.Intn(50))
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for _, id := range ids {
			if v, ok := a.tables[table].Lookup(tx, id); ok {
				r := stm.Handle(v)
				tx.WriteField(r, rsPrice, 100+delta)
			}
		}
	})
}

// Check implements stamp.App: for every resource,
// available + outstanding-reservations == total.
func (a *App) Check(e stm.STM) error {
	th := e.NewThread(stm.MaxThreads - 1)
	_, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) {
		var failure error
		reserved := map[[2]stm.Word]stm.Word{} // (table,id) → count
		a.customers.Visit(tx, func(_, cuV stm.Word) {
			cu := stm.Handle(cuV)
			for s := uint32(0); s < maxResPerCustomer; s++ {
				v := tx.ReadField(cu, cuSlot0+s)
				if v != 0 {
					reserved[[2]stm.Word{v >> 32, v & 0xffffffff}]++
				}
			}
		})
		for t := 0; t < nTables; t++ {
			a.tables[t].Visit(tx, func(id, rv stm.Word) {
				r := stm.Handle(rv)
				total := tx.ReadField(r, rsTotal)
				avail := tx.ReadField(r, rsAvail)
				out := reserved[[2]stm.Word{stm.Word(t), id}]
				if avail+out != total {
					failure = fmt.Errorf("vacation: table %d id %d: avail %d + reserved %d != total %d",
						t, id, avail, out, total)
				}
			})
		}
		return struct{}{}, failure
	})
	return err
}
