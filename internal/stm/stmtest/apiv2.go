package stmtest

import (
	"errors"
	"sync"
	"testing"
	"time"

	"swisstm/internal/stm"
)

// APIV2Suite exercises the value-returning transaction API (DESIGN.md §9)
// on one engine: value returns across retries, error propagation with
// locks released and writes rolled back, declared read-only opacity,
// statistics and handle type, and the error-returning entry points as the
// one-call primitive. It is included in Run and also invoked directly by
// the per-engine -race tests.
func APIV2Suite(t *testing.T, factory func() stm.STM, opts Options) {
	if opts.Threads == 0 {
		opts.Threads = 4
	}
	t.Run("ValueReturn", func(t *testing.T) { testValueReturn(t, factory()) })
	t.Run("ValueAcrossRetries", func(t *testing.T) { testValueAcrossRetries(t, factory()) })
	t.Run("ValueParallel", func(t *testing.T) { testValueParallel(t, factory(), opts.Threads) })
	t.Run("ErrAbortSurfaces", func(t *testing.T) { testErrAbort(t, factory()) })
	t.Run("ErrReleasesLocks", func(t *testing.T) { testErrReleasesLocks(t, factory()) })
	t.Run("ROOpacity", func(t *testing.T) { testROOpacity(t, factory(), opts.Threads) })
	t.Run("ROStats", func(t *testing.T) { testROStats(t, factory()) })
	t.Run("RORestart", func(t *testing.T) { testRORestart(t, factory()) })
	t.Run("ROHandleNotTx", func(t *testing.T) { testROHandleNotTx(t, factory()) })
	t.Run("RunPrimitive", func(t *testing.T) { testRunPrimitive(t, factory()) })
}

func testValueReturn(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	h := stm.Atomic(th, func(tx stm.Tx) stm.Handle {
		o := tx.NewObject(2)
		tx.WriteField(o, 0, 11)
		tx.WriteField(o, 1, 31)
		return o
	})
	got := stm.AtomicRO(th, func(tx stm.TxRO) stm.Word {
		return tx.ReadField(h, 0) * tx.ReadField(h, 1)
	})
	if got != 341 {
		t.Fatalf("AtomicRO returned %d, want 341", got)
	}
	v, err := stm.AtomicErr(th, func(tx stm.Tx) (stm.Word, error) {
		tx.WriteField(h, 0, 5)
		return tx.ReadField(h, 0), nil
	})
	if err != nil || v != 5 {
		t.Fatalf("AtomicErr returned (%d, %v), want (5, nil)", v, err)
	}
}

// testValueAcrossRetries forces a deterministic retry (Restart) and
// checks that the returned value is the committed attempt's, not the
// rolled-back one's.
func testValueAcrossRetries(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	h := alloc(th, 1)
	attempts := 0
	got := stm.Atomic(th, func(tx stm.Tx) int {
		attempts++
		tx.WriteField(h, 0, stm.Word(attempts))
		if attempts < 3 {
			tx.Restart()
		}
		return attempts
	})
	if got != 3 {
		t.Fatalf("Atomic returned %d, want the committed attempt's value 3", got)
	}
	if v := readField(th, h, 0); v != 3 {
		t.Fatalf("field holds %d, want 3 (only the final attempt commits)", v)
	}
}

// testValueParallel hammers a counter through the value-returning API;
// the set of returned values must be exactly 1..N (each increment's
// post-value observed exactly once — atomicity of the return value).
func testValueParallel(t *testing.T, e stm.STM, threads int) {
	th0 := e.NewThread(0)
	h := alloc(th0, 1)
	const perThread = 1500
	seen := make([][]stm.Word, threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			vals := make([]stm.Word, 0, perThread)
			for n := 0; n < perThread; n++ {
				v := stm.Atomic(th, func(tx stm.Tx) stm.Word {
					nv := tx.ReadField(h, 0) + 1
					tx.WriteField(h, 0, nv)
					return nv
				})
				vals = append(vals, v)
			}
			seen[id] = vals
		}(i)
	}
	wg.Wait()
	total := threads * perThread
	marks := make([]bool, total+1)
	for id, vals := range seen {
		for _, v := range vals {
			if v < 1 || v > stm.Word(total) || marks[v] {
				t.Fatalf("thread %d observed post-value %d twice or out of range", id, v)
			}
			marks[v] = true
		}
	}
	if got := readField(th0, h, 0); got != stm.Word(total) {
		t.Fatalf("counter = %d, want %d", got, total)
	}
}

// testErrAbort checks AtomicErr semantics: the error surfaces without
// retrying, the zero value is returned, and the attempt's writes roll
// back.
func testErrAbort(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	h := alloc(th, 1)
	stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, 0, 10) })
	boom := errors.New("insufficient funds")
	runs := 0
	v, err := stm.AtomicErr(th, func(tx stm.Tx) (stm.Word, error) {
		runs++
		tx.WriteField(h, 0, 99)
		return 42, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want the body's error", err)
	}
	if v != 0 {
		t.Fatalf("value %d alongside error, want zero value", v)
	}
	if runs != 1 {
		t.Fatalf("body ran %d times, want 1 (user errors must not retry)", runs)
	}
	if got := readField(th, h, 0); got != 10 {
		t.Fatalf("field holds %d after error abort, want 10 (write must roll back)", got)
	}
	s := th.Stats()
	if s.AbortsUser != 1 {
		t.Errorf("AbortsUser = %d, want 1", s.AbortsUser)
	}
	if s.Aborts != s.AbortsUnwound+s.AbortsReturned {
		t.Errorf("stats partition broken: Aborts=%d ≠ Unwound+Returned=%d+%d",
			s.Aborts, s.AbortsUnwound, s.AbortsReturned)
	}
	// AtomicROErr propagates too, and can fail without ever writing.
	_, err = stm.AtomicROErr(th, func(tx stm.TxRO) (stm.Word, error) {
		if tx.ReadField(h, 0) == 10 {
			return 0, boom
		}
		return tx.ReadField(h, 0), nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("AtomicROErr error %v, want the body's error", err)
	}
}

// testErrReleasesLocks makes the body take a write lock (eager engines
// acquire at encounter time) and then return an error; a second thread
// must be able to write the same object immediately — the rollback
// released every lock.
func testErrReleasesLocks(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	h := alloc(th, 1)
	boom := errors.New("abort after locking")
	if _, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) {
		tx.WriteField(h, 0, 7) // takes the write lock on eager engines
		return struct{}{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("error %v, want the body's error", err)
	}
	done := make(chan struct{})
	go func() {
		th2 := e.NewThread(1)
		stm.AtomicVoid(th2, func(tx stm.Tx) { tx.WriteField(h, 0, 8) })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("write after error abort wedged: engine leaked its lock")
	}
	if got := readField(th, h, 0); got != 8 {
		t.Fatalf("object holds %d, want 8 (errored write must not commit)", got)
	}
}

// testROOpacity runs declared read-only pair reads against concurrent
// pair writers: the RO fast paths must still never observe a torn pair.
func testROOpacity(t *testing.T, e stm.STM, threads int) {
	const pairs = 4
	th0 := e.NewThread(0)
	hs := make([]stm.Handle, pairs)
	for i := range hs {
		hs[i] = alloc(th0, 2)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			seed := uint64(id+1) * 77003
			for n := 0; n < 2500; n++ {
				seed = seed*6364136223846793005 + 1
				p := hs[seed%pairs]
				stm.AtomicVoid(th, func(tx stm.Tx) {
					v := tx.ReadField(p, 0) + 1
					tx.WriteField(p, 0, v)
					tx.WriteField(p, 1, v)
				})
			}
		}(i)
	}
	reader := e.NewThread(threads + 1)
	go func() {
		defer close(stop)
		seed := uint64(0xabc)
		for n := 0; n < 20000; n++ {
			seed = seed*6364136223846793005 + 1
			p := hs[seed%pairs]
			pair := stm.AtomicRO(reader, func(tx stm.TxRO) [2]stm.Word {
				return [2]stm.Word{tx.ReadField(p, 0), tx.ReadField(p, 1)}
			})
			if pair[0] != pair[1] {
				t.Errorf("read-only opacity violation: %d != %d", pair[0], pair[1])
				return
			}
		}
	}()
	<-stop
	wg.Wait()
	if s := reader.Stats(); s.ROCommits == 0 {
		t.Error("reader committed no declared read-only transactions")
	}
}

// testROStats pins the read-only fast-path bookkeeping: every AtomicRO
// commit counts in both Commits and ROCommits, and an uncontended
// read-only phase performs no validation passes at all (in particular,
// TL2's read-only commit replays no read log).
func testROStats(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	h := alloc(th, 4)
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for i := uint32(0); i < 4; i++ {
			tx.WriteField(h, i, stm.Word(i+1))
		}
	})
	before := th.Stats()
	const ro = 50
	for n := 0; n < ro; n++ {
		got := stm.AtomicRO(th, func(tx stm.TxRO) stm.Word {
			var sum stm.Word
			for i := uint32(0); i < 4; i++ {
				sum += tx.ReadField(h, i)
			}
			sum += tx.ReadField(h, 0) // re-read: the dedup/no-log path
			return sum
		})
		if got != 11 {
			t.Fatalf("read-only sum = %d, want 11", got)
		}
	}
	after := th.Stats()
	if d := after.ROCommits - before.ROCommits; d != ro {
		t.Errorf("ROCommits advanced by %d, want %d", d, ro)
	}
	if d := after.Commits - before.Commits; d != ro {
		t.Errorf("Commits advanced by %d, want %d", d, ro)
	}
	if after.Aborts != before.Aborts {
		t.Errorf("uncontended read-only phase aborted %d times", after.Aborts-before.Aborts)
	}
	if d := after.ValidationReads - before.ValidationReads; d != 0 {
		t.Errorf("read-only commits replayed %d read-log entries, want 0", d)
	}
	if d := after.Validations - before.Validations; d != 0 {
		t.Errorf("read-only commits ran %d validation passes, want 0", d)
	}
}

// testRORestart checks Restart through the read-only view.
func testRORestart(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	h := alloc(th, 1)
	stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, 0, 9) })
	tries := 0
	got := stm.AtomicRO(th, func(tx stm.TxRO) stm.Word {
		tries++
		if tries < 3 {
			tx.Restart()
		}
		return tx.ReadField(h, 0)
	})
	if tries != 3 || got != 9 {
		t.Fatalf("tries=%d got=%d, want 3 tries and value 9", tries, got)
	}
	if s := th.Stats(); s.AbortsExplicit < 2 {
		t.Errorf("AbortsExplicit = %d, want ≥ 2", s.AbortsExplicit)
	}
}

// testROHandleNotTx: the handle an AtomicRO body receives is a TxRO and
// nothing more — asserting it to stm.Tx fails, so a declared read-only
// body cannot reach a write method even by type assertion.
func testROHandleNotTx(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	if stm.AtomicRO(th, func(tx stm.TxRO) bool { _, ok := tx.(stm.Tx); return ok }) {
		t.Fatal("the read-only handle asserts to stm.Tx")
	}
}

// testRunPrimitive drives the error-returning entry points as one call
// each: a nil error commits, a body error rolls back and surfaces, and a
// read-only body sees the committed value.
func testRunPrimitive(t *testing.T, e stm.STM) {
	th := e.NewThread(0)
	h := alloc(th, 1)
	if _, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) {
		tx.WriteField(h, 0, 21)
		return struct{}{}, nil
	}); err != nil {
		t.Fatalf("AtomicErr: %v", err)
	}
	boom := errors.New("nope")
	if _, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) {
		tx.WriteField(h, 0, 77)
		return struct{}{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("AtomicErr error %v, want the body's error", err)
	}
	seen, err := stm.AtomicROErr(th, func(tx stm.TxRO) (stm.Word, error) { return tx.ReadField(h, 0), nil })
	if err != nil {
		t.Fatalf("AtomicROErr: %v", err)
	}
	if seen != 21 {
		t.Fatalf("read %d, want 21 (errored write must not commit)", seen)
	}
}
