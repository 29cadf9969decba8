package stmtest

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"swisstm/internal/history"
	"swisstm/internal/stm"
)

// The History case runs three shapes through the object API — a bank with
// a read-only auditor, pairs of fields kept equal, and the write-skew shape
// — records every attempt of every transaction from outside the engine, and
// has internal/history check the recording: opacity for every attempt,
// aborted ones too, and strict serializability for the committed ones. Each
// shape runs under the name of the aggregate-oracle case it replaced.
func testHistory(t *testing.T, factory func() stm.STM, threads int) {
	t.Run("BankConservation", func(t *testing.T) { checkHistory(t, factory(), threads, bankShape) })
	t.Run("OpacityPairs", func(t *testing.T) { checkHistory(t, factory(), threads, pairsShape) })
	t.Run("WriteSkewPrevented", func(t *testing.T) { checkHistory(t, factory(), threads, skewShape) })
}

// historyOps is the transactions each worker of a shape runs: the checker's
// cost grows with the cube of a history's attempts.
const historyOps = 40

// A shape sets its objects up with worker 0 and returns the body of worker
// id in 1..threads; the last worker is the shape's reader, if it has one.
type shape func(setup *worker, threads int) func(w *worker, id int)

// checkHistory runs s on e with threads workers, each on its own engine
// thread, and fails t with the first anomaly the checker names.
func checkHistory(t *testing.T, e stm.STM, threads int, s shape) {
	r := &recorder{}
	setup := r.worker()
	setup.th = e.NewThread(0)
	body := s(setup, threads)
	var wg sync.WaitGroup
	for id := 1; id <= threads; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := r.worker()
			w.th = e.NewThread(id)
			body(w, id)
		}()
	}
	wg.Wait()
	t.Logf("%d attempts", len(r.txns))
	if a := history.Check(r.txns); a != nil {
		t.Fatalf("%s in %d attempts:\n%s", a, len(r.txns), r.describe(a.Txns))
	}
}

// bankShape: threads-1 workers move one unit between random accounts of
// eight; the last worker scans them all read-only.
func bankShape(setup *worker, threads int) func(*worker, int) {
	const accounts = 8
	h := alloc(setup.th, accounts)
	setup.update(func(tx stm.Tx) {
		for i := uint32(0); i < accounts; i++ {
			setup.write(tx, h, i, 1000)
		}
	})
	return func(w *worker, id int) {
		seed := uint64(id) * 2654435761
		for range historyOps {
			if id == threads {
				w.view(func(tx stm.TxRO) {
					for i := uint32(0); i < accounts; i++ {
						w.read(tx, h, i)
					}
				})
				continue
			}
			seed = seed*6364136223846793005 + 1
			from, to := uint32(seed>>33)%accounts, uint32(seed>>13)%accounts
			w.update(func(tx stm.Tx) {
				if bal := w.read(tx, h, from); bal > 0 {
					w.write(tx, h, from, bal-1)
					w.write(tx, h, to, w.read(tx, h, to)+1)
				}
			})
		}
	}
}

// pairsShape: every worker either bumps both fields of one of four pairs,
// reading both first, or reads a pair read-only.
func pairsShape(setup *worker, _ int) func(*worker, int) {
	hs := [4]stm.Handle{}
	for i := range hs {
		hs[i] = alloc(setup.th, 2)
	}
	return func(w *worker, id int) {
		seed := uint64(id) * 40503
		for range historyOps {
			seed = seed*6364136223846793005 + 1
			p := hs[seed>>40%uint64(len(hs))]
			if seed&(1<<20) == 0 {
				w.update(func(tx stm.Tx) {
					v := max(w.read(tx, p, 0), w.read(tx, p, 1)) + 1
					w.write(tx, p, 0, v)
					w.write(tx, p, 1, v)
				})
			} else {
				w.view(func(tx stm.TxRO) { w.read(tx, p, 0); w.read(tx, p, 1) })
			}
		}
	}
}

// skewShape: two balances of 100; a worker withdraws 10 from its side
// while their sum is at least 10. Snapshot isolation would let two
// withdrawals each see the other's side untouched (a G2 cycle).
func skewShape(setup *worker, _ int) func(*worker, int) {
	h := alloc(setup.th, 2)
	setup.update(func(tx stm.Tx) {
		setup.write(tx, h, 0, 100)
		setup.write(tx, h, 1, 100)
	})
	return func(w *worker, id int) {
		side := uint32(id % 2)
		for range historyOps {
			w.update(func(tx stm.Tx) {
				if int32(w.read(tx, h, 0))+int32(w.read(tx, h, 1)) >= 10 {
					w.write(tx, h, side, uint32(int32(w.read(tx, h, side))-10))
				}
			})
		}
	}
}

// recorder collects one history. Every value a shape writes is unique: the
// writing attempt's tag in the high 32 bits, the shape's payload in the
// low 32, so a read names the attempt it read from.
type recorder struct {
	clock atomic.Int64  // one clock for every attempt's interval
	tags  atomic.Uint64 // attempt tags, from 1
	mu    sync.Mutex
	txns  []history.Txn
}

func (r *recorder) worker() *worker { return &worker{r: r} }

func (r *recorder) add(txn history.Txn) {
	r.mu.Lock()
	r.txns = append(r.txns, txn)
	r.mu.Unlock()
}

// describe prints the attempts an anomaly names.
func (r *recorder) describe(ids []int) string {
	var b strings.Builder
	for _, i := range ids {
		if i < 0 {
			continue
		}
		txn := r.txns[i]
		fmt.Fprintf(&b, "  #%d committed=%v [%d,%d]:", i, txn.Committed, txn.Start, txn.End)
		for _, op := range txn.Ops {
			kind := "r"
			if op.Write {
				kind = "w"
			}
			fmt.Fprintf(&b, " %s(%#x)=%d:%d", kind, op.Key, op.Value>>32, uint32(op.Value))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// worker records the attempts of one goroutine's transactions on th.
type worker struct {
	r    *recorder
	th   stm.Thread
	cur  history.Txn // the attempt in progress
	tag  uint64
	open bool // cur is an attempt not yet added
}

// begin runs first in every body: the engine has begun an attempt, so the
// one in progress, if any, rolled back. Start is taken after the engine's
// own begin, which only moves it later than the attempt's first read can
// be ordered.
func (w *worker) begin() {
	now := w.r.clock.Add(1)
	if w.open {
		w.cur.End = now
		w.r.add(w.cur)
	}
	w.cur, w.tag, w.open = history.Txn{Start: now}, w.r.tags.Add(1), true
}

// end adds the attempt in progress as committed.
func (w *worker) end() {
	w.cur.Committed, w.cur.End, w.open = true, w.r.clock.Add(1), false
	w.r.add(w.cur)
}

func (w *worker) update(body func(stm.Tx)) {
	stm.AtomicVoid(w.th, func(tx stm.Tx) { w.begin(); body(tx) })
	w.end()
}

func (w *worker) view(body func(stm.TxRO)) {
	stm.AtomicRO(w.th, func(tx stm.TxRO) bool { w.begin(); body(tx); return true })
	w.end()
}

func key(h stm.Handle, f uint32) uint64 { return uint64(h)<<8 | uint64(f) }

// read records a read of field f of h and returns its payload.
func (w *worker) read(tx stm.TxRO, h stm.Handle, f uint32) uint32 {
	v := tx.ReadField(h, f)
	w.cur.Ops = append(w.cur.Ops, history.Op{Key: key(h, f), Value: v})
	runtime.Gosched() // let another worker's transaction run inside this one
	return uint32(v)
}

// write records and makes a write of payload to field f of h.
func (w *worker) write(tx stm.Tx, h stm.Handle, f, payload uint32) {
	v := w.tag<<32 | uint64(payload)
	w.cur.Ops = append(w.cur.Ops, history.Op{Write: true, Key: key(h, f), Value: v})
	tx.WriteField(h, f, v)
}
