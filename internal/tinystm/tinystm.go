// Package tinystm implements the TinySTM algorithm of Felber, Fetzer and
// Riegel ("Dynamic Performance Tuning of Word-Based Software Transactional
// Memory", PPoPP 2008), the eager baseline of the paper's evaluation
// (version 0.9.5 defaults: encounter-time locking, write-back, timid
// contention management).
//
// TinySTM detects *both* conflict kinds eagerly:
//
//   - Writes acquire a stripe's lock at encounter time (like SwissTM),
//     buffering new values in a redo log. As in the original, the lock is
//     one word per stripe: the version when free, the owner when locked.
//   - A read of a stripe locked by another transaction aborts the reader
//     immediately — the behaviour the paper's §1 (point 2) identifies as
//     harmful for mixed workloads, and which Figure 8 demonstrates: one
//     long writer blocks many readers.
//
// Like SwissTM (and unlike TL2) it uses a time-based scheme with
// timestamp extension, so reads of freshly updated locations can
// revalidate instead of aborting.
package tinystm

import (
	"runtime"
	"sync/atomic"

	"swisstm/internal/mem"
	"swisstm/internal/stm"
	"swisstm/internal/stm/kernel"
)

// Config parameterizes a TinySTM engine.
type Config = kernel.WordConfig

// Engine is a TinySTM instance: a versioned lock word per stripe, which
// names its owner's write-log entry when owned (DESIGN.md §7.5), and the
// global clock, padded onto its own cache line so committers bumping it do
// not invalidate the read-mostly mapping state every other core caches.
type Engine struct {
	cfg Config
	kernel.Heap
	locks []atomic.Uint64 // a mem.NewTable: valid while the engine is reachable

	_     mem.CacheLinePad
	clock mem.PaddedUint64
}

// New creates a TinySTM engine.
func New(cfg Config) *Engine {
	h := kernel.NewHeap("tinystm", &cfg)
	e := &Engine{cfg: cfg, Heap: h}
	e.locks = mem.NewTable[atomic.Uint64](e, h.Entries())
	return e
}

// Name implements stm.STM.
func (e *Engine) Name() string { return "TinySTM" }

// txn is a TinySTM transaction descriptor, one per thread.
type txn struct {
	e *Engine
	// locks, words and shift are e.locks, e.Words and e.Shift, the three a
	// read indexes, held here so a read reaches them in one hop; e keeps
	// the engine, and so the mapped table, reachable.
	locks   []atomic.Uint64
	words   []atomic.Uint64
	shift   uint
	own     uint64 // kernel.Owner(id): every lock word this thread installs, less its index
	validTS uint64
	rs      kernel.ReadSet
	log     kernel.RedoLog // the buffered writes, one entry per owned stripe
	// set is the lock set, entry for entry beside log: each owned stripe
	// with the word its lock replaced. An owned word names its entry here.
	set []kernel.Read
	kernel.Thread
}

// NewThread implements stm.STM. The id is the thread's identity in the
// lock table (owned lock words carry it); see stm.STM.NewThread.
func (e *Engine) NewThread(id int) stm.Thread {
	t := &txn{
		Thread: kernel.NewThread("tinystm", id, uint64(id)*0xabcd1234+3, e.cfg.Obs),
		e:      e,
		locks:  e.locks,
		words:  e.Words,
		shift:  e.Shift,
		own:    kernel.Owner(id),
		log:    kernel.NewRedoLog(e.Width),
	}
	t.rs = kernel.NewReadSet(t, len(e.locks))
	return t
}

// Begin implements stm.Thread.
func (t *txn) Begin(bool) stm.Tx {
	t.begin()
	return t
}

// BeginRO implements stm.Thread. A declared read-only transaction skips
// the write-set init entirely: the write log and the lock set are
// invariantly empty between transactions (commit and abort both truncate
// them; DESIGN.md §9.3). Its view is the descriptor as a roTx.
func (t *txn) BeginRO(bool) stm.TxRO {
	t.validTS = t.e.clock.Load()
	t.rs.Clear()
	return (*roTx)(t)
}

// Unwind implements stm.Thread: triage a panic recovered mid-body; a
// foreign panic releases the encounter-time locks before propagating.
func (t *txn) Unwind(r any) bool {
	if t.Thread.Unwind(r) {
		return true
	}
	t.releaseOwned()
	return false
}

// AbortUser implements stm.Thread: roll back because the body returned an
// error — encounter-time locks released, redo log dropped, no retry.
func (t *txn) AbortUser() {
	t.abort()
	t.AbortedUser()
}

func (t *txn) begin() {
	t.validTS = t.e.clock.Load()
	t.rs.Clear()
	t.log.Reset()
}

// abort performs the rollback bookkeeping without deciding the delivery
// mechanism: callers either return a checked false up to the retry loop or
// panic with the pre-allocated signal when user code must be interrupted.
func (t *txn) abort() {
	t.releaseOwned()
	t.Aborted(len(t.rs.Log))
}

// Restart implements stm.Tx: a user-requested retry always unwinds.
func (t *txn) Restart() {
	t.abort()
	t.Stat.AbortsExplicit++
	panic(stm.SignalRestart)
}

// releaseOwned hands every owned stripe back at the word its lock
// replaced (kernel.Release) and empties the write log and the lock set.
func (t *txn) releaseOwned() {
	kernel.Release(t.locks, t.set)
	t.set = t.set[:0]
	t.log.Reset()
}

// ReadField implements stm.Tx: the TinySTM read protocol, a consistent
// word/value/word sample of a free stripe, then dedup or logging. A read
// that cannot proceed interrupts the user closure with the unwinding
// signal. The fast path makes no call: an owned or moving stripe, a log
// that must grow, extension and abort are the out-of-line readSlow and
// readNewer, which the read-only view shares.
func (t *txn) ReadField(h stm.Handle, field uint32) stm.Word {
	a := stm.Addr(h) + field
	// Local slice header + length mask: provably in-bounds (no check).
	locks := t.locks
	i := int(a>>t.shift) & (len(locks) - 1)
	w, val, ok := kernel.Sample(&locks[i], &t.words[a])
	if ok {
		if w>>1 <= t.validTS {
			if t.rs.TestAndSet(uint32(i)) {
				t.Stat.ReadsDeduped++
				return val
			}
			if t.rs.Push(uint32(i), w) {
				return val
			}
		}
		return t.readNewer(uint32(i), w, val)
	}
	return t.readSlow(a, w)
}

// readSlow finishes a read whose first sample failed, w its first lock
// word. An owned word is the reader's own lock (read-after-write: the
// value from the write log, or memory, which the lock keeps stable) or a
// foreign one, which aborts the reader at once (encounter-time locking,
// timid CM); a read-only attempt owns nothing, so every owned word is
// foreign to it. A free word means a committer moved the stripe between
// the two samples: yield, then resample.
func (t *txn) readSlow(a stm.Addr, w uint64) stm.Word {
	i := int(a>>t.shift) & (len(t.locks) - 1)
	for {
		if w&1 != 0 {
			if idx, mine := kernel.Owns(w, t.own); mine {
				if v, ok := t.log.At(idx).Get(a); ok {
					return v
				}
				return t.words[a].Load()
			}
			t.Stat.AbortsLocked++
			t.abort()
			panic(stm.SignalRollback)
		}
		runtime.Gosched()
		var val stm.Word
		var ok bool
		if w, val, ok = kernel.Sample(&t.locks[i], &t.words[a]); ok {
			if w>>1 <= t.validTS && t.rs.TestAndSet(uint32(i)) {
				t.Stat.ReadsDeduped++
				return val
			}
			return t.readNewer(uint32(i), w, val)
		}
	}
}

// readNewer admits val, read from stripe idx at free lock word w, where
// the fast path could not. At a version ≤ validTS it is a first read (the
// caller set the stripe's bit), logged by an append that may grow the log.
// A re-read there needs no look at the logged entry: every logged version
// is ≤ validTS, and a logged stripe found free at a version ≤ validTS has
// not changed since it was logged (DESIGN.md §7.1). Past validTS, a first
// read extends the snapshot; a logged stripe that far on can never
// validate again, so it aborts now rather than at the next extension.
func (t *txn) readNewer(idx uint32, w uint64, val stm.Word) stm.Word {
	if w>>1 <= t.validTS {
		t.rs.Log = append(t.rs.Log, kernel.Read{Idx: idx, Ver: w})
		return val
	}
	if !t.rs.TestAndSet(idx) {
		t.rs.Log = append(t.rs.Log, kernel.Read{Idx: idx, Ver: w})
		if t.extend() {
			return val
		}
	}
	t.Stat.AbortsValidRead++
	t.abort()
	panic(stm.SignalRollback)
}

// WriteField implements stm.Tx: encounter-time lock acquisition with redo
// logging. An eager write conflict interrupts the user closure via the
// unwinding signal.
func (t *txn) WriteField(h stm.Handle, field uint32, v stm.Word) {
	a := stm.Addr(h) + field
	idx := t.e.Stripe(a)
	l := &t.locks[idx]
	var w uint64
	for {
		w = l.Load()
		if idx, mine := kernel.Owns(w, t.own); mine {
			t.log.At(idx).Set(a, v)
			return
		}
		if w&1 != 0 {
			// Write/write conflict: timid — abort self.
			t.Stat.AbortsWW++
			t.abort()
			panic(stm.SignalRollback)
		}
		t.log.Next(idx, t.e.StripeBase(a)).Set(a, v)
		if l.CompareAndSwap(w, t.own|uint64(t.log.Len())<<1) {
			// The entry joins the write log, and the stripe the lock set,
			// only once the lock is ours.
			t.log.Push()
			t.set = append(t.set, kernel.Read{Idx: idx, Ver: w})
			break
		}
	}
	// The opacity guard, on the version the CAS replaced: the stripe's
	// words are ours to read from memory now, so the snapshot must cover it.
	if w>>1 > t.validTS && !t.extend() {
		t.Stat.AbortsValidRead++
		t.abort()
		panic(stm.SignalRollback)
	}
}

// CommitRO implements stm.Thread: a declared read-only transaction's reads
// were validated as they were made and it holds no lock, so it only counts.
func (t *txn) CommitRO() bool {
	t.CommittedRO(len(t.rs.Log))
	return true
}

// Commit implements stm.Thread: write back the redo log under the
// encounter-time locks, publishing each stripe's new version and releasing
// it in one store. It reports false when the transaction aborted;
// commit-time validation failures take the checked return path and never
// unwind.
func (t *txn) Commit() bool {
	if t.log.Len() == 0 {
		t.Committed(len(t.rs.Log), 0)
		return true
	}
	ts := t.e.clock.Add(1)
	if ts > t.validTS+1 && !t.Validate(t.rs.Log, t.locks, t.own, t.set) {
		t.Stat.AbortsValidCommit++
		t.Stat.AbortsReturned++ // a checked return, not an unwind
		t.abort()
		return false
	}
	wlog := t.log.Entries()
	for i := range wlog {
		we := &wlog[i]
		we.WriteBack(t.e.Words)
		t.e.locks[we.Idx].Store(ts << 1)
	}
	t.log.Reset() // ownership transferred; nothing to release
	t.set = t.set[:0]
	t.Committed(len(t.rs.Log), len(wlog))
	return true
}

// extend revalidates the read log (kernel Thread.Validate: one load of
// each logged stripe's lock word, an owned stripe judged by the word its
// lock replaced), then advances validTS.
func (t *txn) extend() bool {
	ts := t.e.clock.Load()
	if t.Validate(t.rs.Log, t.locks, t.own, t.set) {
		t.validTS = ts
		return true
	}
	return false
}

// NewObject implements stm.Tx.
func (t *txn) NewObject(fields uint32) stm.Handle { return stm.Handle(t.e.Arena().Alloc(fields)) }

// NewObjects implements stm.Tx.
func (t *txn) NewObjects(dst []stm.Handle, f uint32, vals []stm.Word) { t.e.NewObjects(dst, f, vals) }

// roTx is the transaction view BeginRO returns, the descriptor under a
// second method set: its read runs the read-only protocol with no mode
// branch, and it implements stm.TxRO and no write method (DESIGN.md §9.3).
type roTx txn

// ReadField implements stm.TxRO with txn.ReadField's body: a read-only
// transaction owns no encounter-time lock, so readSlow finds any owned word
// foreign and aborts. The body is repeated, not called: the call is the
// cost this method exists to save.
func (r *roTx) ReadField(h stm.Handle, field uint32) stm.Word {
	t := (*txn)(r)
	a := stm.Addr(h) + field
	locks := t.locks
	i := int(a>>t.shift) & (len(locks) - 1)
	w, val, ok := kernel.Sample(&locks[i], &t.words[a])
	if ok {
		if w>>1 <= t.validTS {
			if t.rs.TestAndSet(uint32(i)) {
				t.Stat.ReadsDeduped++
				return val
			}
			if t.rs.Push(uint32(i), w) {
				return val
			}
		}
		return t.readNewer(uint32(i), w, val)
	}
	return t.readSlow(a, w)
}

// Restart implements stm.TxRO.
func (r *roTx) Restart() { (*txn)(r).Restart() }

var _ stm.STM = (*Engine)(nil)
var _ stm.Thread = (*txn)(nil)
var _ stm.Tx = (*txn)(nil)
var _ stm.TxRO = (*roTx)(nil)
