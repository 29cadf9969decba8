// Package tinystm implements the TinySTM algorithm of Felber, Fetzer and
// Riegel ("Dynamic Performance Tuning of Word-Based Software Transactional
// Memory", PPoPP 2008), the eager baseline of the paper's evaluation
// (version 0.9.5 defaults: encounter-time locking, write-back, timid
// contention management).
//
// TinySTM detects *both* conflict kinds eagerly:
//
//   - Writes acquire a per-stripe lock at encounter time (like SwissTM),
//     buffering new values in a redo log.
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

// A stripe's owner word is 0 when free, otherwise ownerTag<<24 | write-log
// index, where ownerTag is the owner's thread id + 1 — the encoding of
// SwissTM's w-lock word, with the same two bounds (DESIGN.md §7).
const (
	wTagShift = kernel.MaxTableBits
	wIdxMask  = uint32(1)<<wTagShift - 1
	_         = uint8(stm.MaxThreads + 1)
)

// Engine is a TinySTM instance. Each stripe has a version counter and an
// owner word; a non-zero owner is the encounter-time write lock. The
// global clock — the hottest write-shared word — is padded onto its own
// cache line so committers bumping it do not invalidate the line holding
// the read-mostly mapping state in every other core's cache.
type Engine struct {
	cfg Config
	kernel.Heap
	// vers and owners are mem.NewTables: valid while the engine is reachable.
	vers   []atomic.Uint64
	owners []atomic.Uint32

	_     mem.CacheLinePad
	clock mem.PaddedUint64
}

// New creates a TinySTM engine.
func New(cfg Config) *Engine {
	h := kernel.NewHeap("tinystm", &cfg)
	e := &Engine{cfg: cfg, Heap: h}
	e.vers = mem.NewTable[atomic.Uint64](e, h.Entries())
	e.owners = mem.NewTable[atomic.Uint32](e, h.Entries())
	return e
}

// Name implements stm.STM.
func (e *Engine) Name() string { return "TinySTM" }

// txn is a TinySTM transaction descriptor, one per thread.
type txn struct {
	e       *Engine
	tag     uint32 // (id+1)<<24: the owner bits of every owner word this thread installs
	validTS uint64
	rs      kernel.ReadSet
	log     kernel.RedoLog // a stripe's owner word names its entry here
	roV     roTx           // pre-allocated read-only view returned by BeginRO
	kernel.Thread
}

// NewThread implements stm.STM. The id is the thread's identity in the
// lock table (owner words carry it); see stm.STM.NewThread.
func (e *Engine) NewThread(id int) stm.Thread {
	t := &txn{
		Thread: kernel.NewThread("tinystm", id, uint64(id)*0xabcd1234+3, e.cfg.Obs),
		e:      e,
		tag:    uint32(id+1) << wTagShift,
		log:    kernel.NewRedoLog(e.Width),
	}
	t.rs = kernel.NewReadSet(t, len(e.vers))
	t.roV.t = t
	return t
}

// Begin implements stm.Thread.
func (t *txn) Begin(bool) stm.Tx {
	t.RO = false
	t.begin()
	return t
}

// BeginRO implements stm.Thread. A declared read-only transaction skips
// the write-set init entirely: the write log is invariantly empty between
// transactions (commit and abort both truncate it; DESIGN.md §9.3).
func (t *txn) BeginRO(bool) stm.TxRO {
	t.RO = true
	t.validTS = t.e.clock.Load()
	t.rs.Clear()
	return &t.roV
}

// Commit implements stm.Thread.
func (t *txn) Commit() bool {
	if t.RO {
		return t.commitRO()
	}
	return t.commit()
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

// commitAbort delivers a commit-time abort as a checked return.
func (t *txn) commitAbort() bool {
	t.abort()
	t.Stat.AbortsReturned++
	return false
}

// Restart implements stm.Tx: a user-requested retry always unwinds.
func (t *txn) Restart() {
	t.abort()
	t.Stat.AbortsExplicit++
	panic(stm.SignalRestart)
}

func (t *txn) releaseOwned() {
	wlog := t.log.Entries()
	for i := range wlog {
		t.e.owners[wlog[i].Idx].Store(0)
	}
	t.log.Reset()
}

// Load implements stm.Tx: the thin wrapper that converts load's checked
// abort into the single unwinding panic (a read conflict must interrupt
// the user closure).
func (t *txn) Load(a stm.Addr) stm.Word {
	v, ok := t.load(a)
	if !ok {
		panic(stm.SignalRollback)
	}
	return v
}

// load implements the TinySTM read protocol: encounter-time lock check
// (abort if locked by another), consistent version/value sample, timestamp
// extension when the version is newer than the snapshot. ok=false means
// the transaction aborted.
func (t *txn) load(a stm.Addr) (stm.Word, bool) {
	// Local slice header + length mask: provably in-bounds (no check),
	// one engine dereference.
	vers := t.e.vers
	i := int(a>>t.e.Shift) & (len(vers) - 1)
	idx := uint32(i)
	own := &t.e.owners[i]
	ver := &vers[i]
	for {
		if w := own.Load(); w != 0 {
			if w&^wIdxMask == t.tag {
				if v, ok := t.log.At(w & wIdxMask).Get(a); ok {
					return v, true
				}
				return t.e.Words[a].Load(), true
			}
			// Encounter-time locking: a reader hitting a foreign lock
			// aborts at once (timid CM).
			t.Stat.AbortsLocked++
			t.abort()
			return 0, false
		}
		v1 := ver.Load()
		val := t.e.Words[a].Load()
		v2 := ver.Load()
		if v1 != v2 || own.Load() != 0 {
			// A committer moved under us; resample.
			runtime.Gosched()
			continue
		}
		// Read-set dedup: log each stripe once. A re-read needs no look at
		// the logged entry: every logged version is ≤ validTS, and a
		// logged stripe found unowned at a version ≤ validTS has not
		// changed since it was logged (DESIGN.md §7.1). So v1 within the
		// snapshot is the logged version; v1 beyond it means the logged
		// entry can never validate again, so abort now rather than at the
		// next extension (the outcome the duplicate entry would force
		// anyway; see dedup_test.go).
		if t.rs.TestAndSet(idx) {
			if v1 <= t.validTS {
				t.Stat.ReadsDeduped++
				return val, true
			}
		} else {
			t.rs.Log = append(t.rs.Log, kernel.Read{Idx: idx, Ver: v1})
			if v1 <= t.validTS || t.extend() {
				return val, true
			}
		}
		t.Stat.AbortsValid++
		t.Stat.AbortsValidRead++
		t.abort()
		return 0, false
	}
}

// loadRO is the declared-read-only read protocol: the consistent
// version/value sample plus dedup/extension of load, minus the own-lock
// branch — a read-only transaction owns no encounter-time lock, so any
// non-zero owner is foreign and aborts us at once. ok=false means the
// transaction aborted.
func (t *txn) loadRO(a stm.Addr) (stm.Word, bool) {
	vers := t.e.vers
	i := int(a>>t.e.Shift) & (len(vers) - 1)
	idx := uint32(i)
	own := &t.e.owners[i]
	ver := &vers[i]
	for {
		if own.Load() != 0 {
			t.Stat.AbortsLocked++
			t.abort()
			return 0, false
		}
		v1 := ver.Load()
		val := t.e.Words[a].Load()
		v2 := ver.Load()
		if v1 != v2 || own.Load() != 0 {
			runtime.Gosched()
			continue
		}
		// Same read-set dedup discipline as load (DESIGN.md §7.1).
		if t.rs.TestAndSet(idx) {
			if v1 <= t.validTS {
				t.Stat.ReadsDeduped++
				return val, true
			}
		} else {
			t.rs.Log = append(t.rs.Log, kernel.Read{Idx: idx, Ver: v1})
			if v1 <= t.validTS || t.extend() {
				return val, true
			}
		}
		t.Stat.AbortsValid++
		t.Stat.AbortsValidRead++
		t.abort()
		return 0, false
	}
}

// Store implements stm.Tx; an eager write conflict interrupts the user
// closure via the unwinding signal.
func (t *txn) Store(a stm.Addr, v stm.Word) {
	if !t.store(a, v) {
		panic(stm.SignalRollback)
	}
}

// store implements encounter-time lock acquisition with redo logging.
// ok=false means the transaction aborted.
func (t *txn) store(a stm.Addr, v stm.Word) bool {
	idx := t.e.Stripe(a)
	own := &t.e.owners[idx]
	for {
		w := own.Load()
		if w&^wIdxMask == t.tag {
			t.log.At(w&wIdxMask).Set(a, v)
			return true
		}
		if w != 0 {
			// Write/write conflict: timid — abort self.
			t.Stat.AbortsWW++
			t.abort()
			return false
		}
		t.log.Next(idx, t.e.StripeBase(a)).Set(a, v)
		if own.CompareAndSwap(0, t.tag|uint32(t.log.Len())) {
			t.log.Push() // the entry joins the write log only once the lock is ours
			break
		}
	}
	if ver := t.e.vers[idx].Load(); ver > t.validTS && !t.extend() {
		t.Stat.AbortsValid++
		t.Stat.AbortsValidRead++
		t.abort()
		return false
	}
	return true
}

// commitRO commits a declared read-only transaction: reads were
// validated (and extended) incrementally and no lock is held, so there is
// nothing left to check — the write side of commit (clock bump, redo
// write-back, lock release) is skipped wholesale.
func (t *txn) commitRO() bool {
	t.CommittedRO(len(t.rs.Log))
	return true
}

// commit writes back the redo log under the encounter-time locks. It
// reports false when the transaction aborted; commit-time validation
// failures take the checked return path and never unwind.
func (t *txn) commit() bool {
	if t.log.Len() == 0 {
		t.Committed(len(t.rs.Log), 0)
		return true
	}
	ts := t.e.clock.Add(1)
	if ts > t.validTS+1 && !t.validate() {
		t.Stat.AbortsValid++
		t.Stat.AbortsValidCommit++
		return t.commitAbort()
	}
	wlog := t.log.Entries()
	for i := range wlog {
		we := &wlog[i]
		we.WriteBack(t.e.Words)
		t.e.vers[we.Idx].Store(ts)
		t.e.owners[we.Idx].Store(0)
	}
	t.log.Reset() // ownership transferred; nothing to release
	t.Committed(len(t.rs.Log), len(wlog))
	return true
}

// validate checks that every logged stripe is still at its logged
// version and not locked by another transaction. The owner is read
// BEFORE the version: commit publishes a stripe's new version and then
// clears its owner, so the other order lets a committer overtake the two
// loads — old version, then free owner — and a stale entry validates;
// through extend that loses an update. Owner-then-version cannot miss
// it: a free owner means no write-back was in progress at that instant,
// and any commit since has moved the version.
func (t *txn) validate() bool {
	t.Stat.Validations++
	t.Stat.ValidationReads += uint64(len(t.rs.Log))
	for _, re := range t.rs.Log {
		if w := t.e.owners[re.Idx].Load(); w != 0 && w&^wIdxMask != t.tag {
			return false
		}
		if t.e.vers[re.Idx].Load() != re.Ver {
			return false
		}
	}
	return true
}

func (t *txn) extend() bool {
	ts := t.e.clock.Load()
	if t.validate() {
		t.validTS = ts
		return true
	}
	return false
}

// AllocWords implements stm.Tx.
func (t *txn) AllocWords(n uint32) stm.Addr { return t.e.Arena().Alloc(n) }

// ReadField implements stm.Tx (object-over-words wrapper).
func (t *txn) ReadField(h stm.Handle, field uint32) stm.Word {
	return t.Load(stm.Addr(h) + field)
}

// WriteField implements stm.Tx.
func (t *txn) WriteField(h stm.Handle, field uint32, v stm.Word) {
	t.Store(stm.Addr(h)+field, v)
}

// NewObject implements stm.Tx.
func (t *txn) NewObject(fields uint32) stm.Handle { return stm.Handle(t.e.Arena().Alloc(fields)) }

// NewObjects implements stm.Tx.
func (t *txn) NewObjects(dst []stm.Handle, f uint32, vals []stm.Word) { t.e.NewObjects(dst, f, vals) }

// roTx is the transaction view BeginRO returns: its read method runs the
// loadRO fast path with no mode branch, and it implements stm.TxRO and
// nothing more (DESIGN.md §9.3).
type roTx struct{ t *txn }

// Load implements stm.TxRO.
func (r *roTx) Load(a stm.Addr) stm.Word {
	v, ok := r.t.loadRO(a)
	if !ok {
		panic(stm.SignalRollback)
	}
	return v
}

// ReadField implements stm.TxRO.
func (r *roTx) ReadField(h stm.Handle, field uint32) stm.Word {
	return r.Load(stm.Addr(h) + field)
}

// Restart implements stm.TxRO.
func (r *roTx) Restart() { r.t.Restart() }

var _ stm.STM = (*Engine)(nil)
var _ stm.Thread = (*txn)(nil)
var _ stm.Tx = (*txn)(nil)
var _ stm.TxRO = (*roTx)(nil)
