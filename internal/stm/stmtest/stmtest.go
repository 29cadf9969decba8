// Package stmtest is a conformance and stress suite run against every STM
// engine in the repository. It checks the semantic guarantees the paper
// assumes of all four systems (§3.1): atomicity, isolation, opacity
// (transactions never observe inconsistent snapshots), and
// read-your-writes, plus engine liveness under contention. The suite is
// written against the v2 value-returning API (DESIGN.md §9), so it also
// exercises the typed entry points on every engine.
package stmtest

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"swisstm/internal/stm"
)

// Options configures the conformance run for one engine.
type Options struct {
	// WordAPI is true for the engines that keep objects in a word arena
	// (SwissTM, TL2, TinySTM); it runs the WordAPI case, which checks the
	// words under the object API. Object-based RSTM has no arena.
	WordAPI bool
	// Threads caps the concurrency of the stress tests.
	Threads int
}

// Run executes the full conformance suite. factory must return a fresh
// engine per call.
func Run(t *testing.T, factory func() stm.STM, opts Options) {
	if opts.Threads == 0 {
		opts.Threads = 4
	}
	t.Run("ReadYourWrites", func(t *testing.T) { testReadYourWrites(t, factory()) })
	t.Run("ObjectRoundTrip", func(t *testing.T) { testObjectRoundTrip(t, factory()) })
	t.Run("CommitPublishes", func(t *testing.T) { testCommitPublishes(t, factory()) })
	t.Run("CountersParallel", func(t *testing.T) { testCounters(t, factory(), opts.Threads) })
	testHistory(t, factory, opts.Threads)
	t.Run("DisjointScaling", func(t *testing.T) { testDisjoint(t, factory(), opts.Threads) })
	t.Run("QuickModelCheck", func(t *testing.T) { testQuickModel(t, factory) })
	t.Run("ThreadReRegistration", func(t *testing.T) { testThreadReRegistration(t, factory()) })
	t.Run("OwnWriteValidates", func(t *testing.T) { testOwnWriteValidates(t, factory()) })
	t.Run("NewObjects", func(t *testing.T) { testNewObjects(t, factory()) })
	if arena := factory().Arena() != nil; opts.WordAPI != arena {
		t.Fatalf("options claim WordAPI=%t, but the engine has a word arena: %t", opts.WordAPI, arena)
	}
	if opts.WordAPI {
		t.Run("WordAPI", func(t *testing.T) { testWordAPI(t, factory()) })
	}
	t.Run("APIV2", func(t *testing.T) { APIV2Suite(t, factory, opts) })
}

// alloc creates an n-field object outside any transaction by running a
// tiny allocation-only transaction.
func alloc(th stm.Thread, n uint32) stm.Handle {
	return stm.Atomic(th, func(tx stm.Tx) stm.Handle { return tx.NewObject(n) })
}

// readField reads one field in its own read-only transaction.
func readField(th stm.Thread, h stm.Handle, f uint32) stm.Word {
	return stm.AtomicRO(th, func(tx stm.TxRO) stm.Word { return tx.ReadField(h, f) })
}

func testReadYourWrites(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	h := alloc(th, 4)
	stm.AtomicVoid(th, func(tx stm.Tx) {
		tx.WriteField(h, 0, 41)
		tx.WriteField(h, 1, 17)
		if got := tx.ReadField(h, 0); got != 41 {
			t.Fatalf("read-after-write field 0: got %d, want 41", got)
		}
		tx.WriteField(h, 0, 42)
		if got := tx.ReadField(h, 0); got != 42 {
			t.Fatalf("overwrite not visible: got %d, want 42", got)
		}
		if got := tx.ReadField(h, 1); got != 17 {
			t.Fatalf("read-after-write field 1: got %d, want 17", got)
		}
		// Field 2 was never written in this transaction: must read the
		// pre-transaction value (zero) even though fields 0-1 of the same
		// object (possibly the same lock stripe) are written.
		if got := tx.ReadField(h, 2); got != 0 {
			t.Fatalf("unwritten field: got %d, want 0", got)
		}
	})
	if got := readField(th, h, 0); got != 42 {
		t.Fatalf("after commit: got %d, want 42", got)
	}
}

// testThreadReRegistration pins the NewThread contract: an id may be
// registered again once its previous thread is idle, the new thread then
// reads its own writes and commits (on the engines whose lock words carry
// the id, out of its own write log, not its predecessor's), and ids
// outside [0, MaxThreads) are refused.
func testThreadReRegistration(t *testing.T, e stm.STM) {
	a := e.NewThread(3)
	var hs [4]stm.Handle
	for i := range hs {
		hs[i] = alloc(a, 64)
	}
	stm.AtomicVoid(a, func(tx stm.Tx) { // four write-log entries in a's log
		for i, h := range hs {
			tx.WriteField(h, 0, stm.Word(i)+1)
		}
	})
	b := e.NewThread(3)
	stm.AtomicVoid(b, func(tx stm.Tx) {
		tx.WriteField(hs[3], 0, 40) // b's first entry; a's first covered hs[0]
		if got := tx.ReadField(hs[3], 0); got != 40 {
			t.Fatalf("read-after-write on the re-registered id = %d, want 40", got)
		}
		if got := tx.ReadField(hs[0], 0); got != 1 {
			t.Fatalf("committed field read %d, want 1", got)
		}
	})
	if got := readField(b, hs[3], 0); got != 40 {
		t.Fatalf("commit on the re-registered id published %d, want 40", got)
	}
	for _, id := range []int{-1, stm.MaxThreads} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewThread(%d) did not panic", id)
				}
			}()
			e.NewThread(id)
		}()
	}
}

// testOwnWriteValidates: thread A reads and writes s, and inside its body
// thread B commits on an unrelated object, so A's commit must validate its
// read of s while A itself holds s's lock. Validation has to recognise
// that lock as A's own: taking it for a foreign one (or consulting some
// other stripe's lock) aborts A for nothing, and its body runs again.
func testOwnWriteValidates(t *testing.T, e stm.STM) {
	a, b, c := e.NewThread(0), e.NewThread(1), e.NewThread(2)
	// 64 words apart, so s and u share no stripe at any granularity here.
	s, u := alloc(a, 64), alloc(a, 64)
	before := a.Stats()
	runs := 0
	bDone := make(chan struct{})
	stm.AtomicVoid(a, func(tx stm.Tx) {
		runs++
		tx.WriteField(s, 0, tx.ReadField(s, 0)+1)
		if runs > 1 {
			return
		}
		go func() {
			stm.AtomicVoid(b, func(tx stm.Tx) { tx.WriteField(u, 0, tx.ReadField(u, 0)+1) })
			close(bDone)
		}()
		// Wait until B's write is readable, so B's commit is published
		// before A goes on to commit; B's goroutine is joined after A.
		for readField(c, u, 0) == 0 {
			runtime.Gosched()
		}
	})
	<-bDone
	after := a.Stats()
	if runs != 1 {
		t.Fatalf("A's body ran %d times, want once", runs)
	}
	// RSTM's visible readers validate nothing: a writer aborts them before
	// it commits. Every other engine must have validated A's read of s.
	if after.Validations == before.Validations && !strings.Contains(e.Name(), "/visible/") {
		t.Fatalf("A committed after B without validating its read of s")
	}
	if got := readField(a, s, 0); got != 1 {
		t.Fatalf("A's write published %d, want 1", got)
	}
}

func testObjectRoundTrip(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	const fields = 16
	h := alloc(th, fields)
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for i := uint32(0); i < fields; i++ {
			tx.WriteField(h, i, stm.Word(i*i+1))
		}
	})
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for i := uint32(0); i < fields; i++ {
			if got := tx.ReadField(h, i); got != stm.Word(i*i+1) {
				t.Fatalf("field %d: got %d, want %d", i, got, i*i+1)
			}
		}
	})
}

func testCommitPublishes(t *testing.T, e stm.STM) {
	th0 := e.NewThread(0)
	th1 := e.NewThread(1)
	h := alloc(th0, 1)
	stm.AtomicVoid(th0, func(tx stm.Tx) { tx.WriteField(h, 0, 7) })
	if got := readField(th1, h, 0); got != 7 {
		t.Fatalf("thread 1 read %d, want 7", got)
	}
}

// testCounters hammers a single shared counter from all threads; the final
// value must equal the total number of increments (atomicity + isolation).
func testCounters(t *testing.T, e stm.STM, threads int) {
	th0 := e.NewThread(0)
	h := alloc(th0, 1)
	const perThread = 2000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			for n := 0; n < perThread; n++ {
				stm.AtomicVoid(th, func(tx stm.Tx) {
					tx.WriteField(h, 0, tx.ReadField(h, 0)+1)
				})
			}
		}(i)
	}
	wg.Wait()
	if got := readField(th0, h, 0); got != stm.Word(threads*perThread) {
		t.Fatalf("counter = %d, want %d", got, threads*perThread)
	}
}

// testDisjoint runs threads on disjoint objects; nothing conflicts, so all
// work must complete with a final per-thread value intact.
func testDisjoint(t *testing.T, e stm.STM, threads int) {
	th0 := e.NewThread(0)
	hs := make([]stm.Handle, threads)
	for i := range hs {
		hs[i] = alloc(th0, 1)
	}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			for n := 0; n < 5000; n++ {
				stm.AtomicVoid(th, func(tx stm.Tx) {
					tx.WriteField(hs[id], 0, tx.ReadField(hs[id], 0)+1)
				})
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < threads; i++ {
		if got := readField(th0, hs[i], 0); got != 5000 {
			t.Fatalf("disjoint counter %d = %d, want 5000", i, got)
		}
	}
}

// testQuickModel drives a fresh engine with random single-threaded
// operation sequences and compares against a map model (testing/quick).
func testQuickModel(t *testing.T, factory func() stm.STM) {
	check := func(ops []uint16) bool {
		e := factory()
		th := e.NewThread(0)
		const slots = 16
		h := alloc(th, slots)
		model := make(map[uint32]stm.Word, slots)
		for _, op := range ops {
			slot := uint32(op) % slots
			val := stm.Word(op >> 4)
			if op&1 == 0 {
				stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, slot, val) })
				model[slot] = val
			} else if got := readField(th, h, slot); got != model[slot] {
				return false
			}
		}
		// Final full scan in one read-only transaction.
		return stm.AtomicRO(th, func(tx stm.TxRO) bool {
			for s := uint32(0); s < slots; s++ {
				if tx.ReadField(h, s) != model[s] {
					return false
				}
			}
			return true
		})
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// testWordAPI checks the words under the object API on a word arena: an
// object's handle is the address of field 0 and its fields are the words
// after it, so a committed write is the arena word at handle+field.
func testWordAPI(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	words := e.Arena().Words()
	h := stm.Atomic(th, func(tx stm.Tx) stm.Handle {
		o := tx.NewObject(8)
		for i := uint32(0); i < 8; i++ {
			tx.WriteField(o, i, stm.Word(100+i))
		}
		return o
	})
	for i := uint32(0); i < 8; i++ {
		if got := words[stm.Addr(h)+i].Load(); got != stm.Word(100+i) {
			t.Fatalf("word %d: got %d, want %d", i, got, 100+i)
		}
	}
	words[stm.Addr(h)+3].Store(7) // a raw write outside any transaction
	stm.AtomicVoid(th, func(tx stm.Tx) {
		if got := tx.ReadField(h, 3); got != 7 {
			t.Fatalf("field 3 after a raw write: got %d, want 7", got)
		}
		tx.WriteField(h, 0, 999)
		if got := tx.ReadField(h, 0); got != 999 {
			t.Fatalf("read-after-write: got %d, want 999", got)
		}
	})
	if got := words[h].Load(); got != 999 {
		t.Fatalf("raw arena read: got %d, want 999", got)
	}
}
