package stmtest

import (
	"testing"

	"swisstm/internal/stm"
)

// ZeroAllocSteadyState asserts the allocation-free transaction lifecycle
// invariant of DESIGN.md §7, now through the v2 value-returning API
// (DESIGN.md §9): once a thread's logs, pools and caches are warm,
// committed transactions allocate nothing. It checks a value-returning
// read-only transaction via both Atomic and the declared-read-only
// AtomicRO fast path (with re-reads, so the dedup path is exercised) and
// — when updates is true — a small update transaction. Engines whose
// design inherently allocates on writes (RSTM clones objects per
// acquisition) pass updates=false and are only held to the read-only
// bound.
//
// wordAPI selects, for the word-based engines, a 16-field object whose
// update writes fields 1 and 9 — two stripes at the default granularity;
// RSTM gets an 8-field object and a one-field update.
func ZeroAllocSteadyState(t *testing.T, e stm.STM, wordAPI, updates bool) {
	t.Helper()
	th := e.NewThread(0)

	var roBody func(stm.Tx) stm.Word
	var roBodyRO func(stm.TxRO) stm.Word
	var upBody func(stm.Tx)
	if wordAPI {
		obj := stm.Atomic(th, func(tx stm.Tx) stm.Handle {
			o := tx.NewObject(16)
			for i := uint32(0); i < 16; i++ {
				tx.WriteField(o, i, stm.Word(i))
			}
			return o
		})
		roBody = func(tx stm.Tx) stm.Word {
			var sum stm.Word
			for i := uint32(0); i < 8; i++ {
				sum += tx.ReadField(obj, i)
			}
			return sum + tx.ReadField(obj, 0) // re-read: dedup hit
		}
		roBodyRO = func(tx stm.TxRO) stm.Word {
			var sum stm.Word
			for i := uint32(0); i < 8; i++ {
				sum += tx.ReadField(obj, i)
			}
			return sum + tx.ReadField(obj, 0)
		}
		upBody = func(tx stm.Tx) {
			v := tx.ReadField(obj, 0)
			tx.WriteField(obj, 1, v+1)
			tx.WriteField(obj, 9, v+2)
		}
	} else {
		obj := stm.Atomic(th, func(tx stm.Tx) stm.Handle {
			o := tx.NewObject(8)
			for i := uint32(0); i < 8; i++ {
				tx.WriteField(o, i, stm.Word(i))
			}
			return o
		})
		roBody = func(tx stm.Tx) stm.Word {
			var sum stm.Word
			for i := uint32(0); i < 8; i++ {
				sum += tx.ReadField(obj, i)
			}
			return sum + tx.ReadField(obj, 0)
		}
		roBodyRO = func(tx stm.TxRO) stm.Word {
			var sum stm.Word
			for i := uint32(0); i < 8; i++ {
				sum += tx.ReadField(obj, i)
			}
			return sum + tx.ReadField(obj, 0)
		}
		upBody = func(tx stm.Tx) {
			v := tx.ReadField(obj, 0)
			tx.WriteField(obj, 1, v+1)
		}
	}

	// Warm the per-thread logs and write-entry pools.
	var sink stm.Word
	for i := 0; i < 100; i++ {
		sink += stm.Atomic(th, roBody)
		sink += stm.AtomicRO(th, roBodyRO)
		if updates {
			stm.AtomicVoid(th, upBody)
		}
	}
	_ = sink

	if n := testing.AllocsPerRun(200, func() { sink = stm.Atomic(th, roBody) }); n != 0 {
		t.Errorf("%s: read-only Atomic allocates %.1f objects/commit, want 0", e.Name(), n)
	}
	if n := testing.AllocsPerRun(200, func() { sink = stm.AtomicRO(th, roBodyRO) }); n != 0 {
		t.Errorf("%s: declared read-only AtomicRO allocates %.1f objects/commit, want 0", e.Name(), n)
	}
	if updates {
		if n := testing.AllocsPerRun(200, func() { stm.AtomicVoid(th, upBody) }); n != 0 {
			t.Errorf("%s: small update transaction allocates %.1f objects/commit, want 0", e.Name(), n)
		}
	}
}

// ZeroAllocLongReadStripes is the read-set size of ZeroAllocLongRead; the
// engine under test needs at least that many lock-table entries and four
// words of arena for each.
const ZeroAllocLongReadStripes = 50000

// ZeroAllocLongRead extends the steady-state gate to a long read set on
// the engines that deduplicate theirs (DESIGN.md §7.1): a transaction that
// reads 50 000 distinct stripes and then reads them all again. The read
// log reaches its size on the first run; after it, two runs in a row —
// declared read-only and plain — allocate nothing: the dedup bitmap is
// sized to the lock table when the thread is created and never grows.
func ZeroAllocLongRead(t *testing.T, e stm.STM) {
	t.Helper()
	th := e.NewThread(0)
	hs := make([]stm.Handle, ZeroAllocLongReadStripes)
	for i := range hs {
		hs[i] = alloc(th, 4)
	}
	walk := func(tx stm.TxRO) stm.Word {
		var sum stm.Word
		for pass := 0; pass < 2; pass++ {
			for _, h := range hs {
				sum += tx.ReadField(h, 0)
			}
		}
		return sum
	}
	walkRW := func(tx stm.Tx) stm.Word { return walk(tx) }
	sink := stm.AtomicRO(th, walk) // the read log grows here, once
	if n := testing.AllocsPerRun(2, func() { sink += stm.AtomicRO(th, walk) }); n != 0 {
		t.Errorf("%s: %d-stripe AtomicRO allocates %.1f objects/commit on a warm thread, want 0", e.Name(), len(hs), n)
	}
	if n := testing.AllocsPerRun(2, func() { sink += stm.Atomic(th, walkRW) }); n != 0 {
		t.Errorf("%s: %d-stripe Atomic allocates %.1f objects/commit on a warm thread, want 0", e.Name(), len(hs), n)
	}
	if s := th.Stats(); s.ReadsDeduped < 6*uint64(len(hs)) {
		t.Errorf("%s: %d dedup hits over six walks of %d stripes read twice", e.Name(), s.ReadsDeduped, len(hs))
	}
}

// ZeroAllocLoop extends the steady-state gate to whole benchmark
// operation loops (bench7's pre-bound op tables, for instance): after
// `warm` warm-up calls, `op` must allocate nothing per call. It shares
// ZeroAllocSteadyState's philosophy — warm the per-thread structures
// first, then hold the hot loop to exactly zero.
func ZeroAllocLoop(t *testing.T, name string, warm int, op func()) {
	t.Helper()
	for i := 0; i < warm; i++ {
		op()
	}
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, n)
	}
}

// ZeroAllocFirstLongRead holds SwissTM and TinySTM on Linux to DESIGN.md
// §7.2's first long read: a thread fresh from NewThread reads every
// four-word stripe of e's arena twice in one AtomicRO without allocating,
// into a read log of capacity logCap that NewThread reserved at one entry
// per stripe. e's lock table has an entry per stripe, 2^17 or more.
func ZeroAllocFirstLongRead(t *testing.T, e stm.STM, logCap func(stm.Thread) int) {
	t.Helper()
	stripes := e.Arena().Cap() / 4
	walk := func(tx stm.TxRO) (sum stm.Word) {
		for a := 0; a < 8*stripes; a += 4 {
			sum += tx.ReadField(stm.Handle(a%(4*stripes)), 0)
		}
		return sum
	}
	// AllocsPerRun runs twice, a warm-up and the counted run, each on a
	// thread of its own.
	ths := []stm.Thread{e.NewThread(0), e.NewThread(1)}
	next := 0
	if n := testing.AllocsPerRun(1, func() { stm.AtomicRO(ths[next], walk); next++ }); n != 0 {
		t.Errorf("%s: a fresh thread's first %d-stripe AtomicRO allocates %.0f objects, want 0", e.Name(), stripes, n)
	}
	for i, th := range ths {
		if c, s := logCap(th), th.Stats(); c != stripes || s.ReadsLogged != uint64(stripes) || s.ReadsDeduped != uint64(stripes) {
			t.Errorf("%s: thread %d's read log has room for %d after %d reads logged, %d deduped; want %d each",
				e.Name(), i, c, s.ReadsLogged, s.ReadsDeduped, stripes)
		}
	}
}
