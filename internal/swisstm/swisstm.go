// Package swisstm implements SwissTM, the lock- and word-based software
// transactional memory of Dragojević, Guerraoui and Kapałka, "Stretching
// Transactional Memory" (PLDI 2009) — the paper's primary contribution.
//
// SwissTM's two distinctive design choices (paper §3):
//
//  1. Mixed conflict detection. Write/write conflicts are detected eagerly:
//     a writer acquires a stripe's w-lock at its first write, so a second
//     writer notices immediately and the contention manager arbitrates.
//     Read/write conflicts are detected lazily: reads are invisible and a
//     transaction may read a stripe whose w-lock is held, because the
//     writer's redo log keeps memory unchanged until commit. A global
//     commit counter plus timestamp extension keeps validation cheap.
//
//  2. A two-phase contention manager. Transactions start in the first
//     phase with conceptual priority ∞ and abort themselves on any
//     write/write conflict (the cheap "timid" policy, touching no shared
//     state). Upon their Wn-th write they enter the second phase and draw a
//     Greedy timestamp from a shared counter; among second-phase
//     transactions the older wins, and any second-phase transaction wins
//     against a first-phase one. Rolled-back transactions wait a
//     randomized linear back-off before retrying.
//
// The implementation follows Algorithm 1 and Algorithm 2 of the paper
// line by line; the mapping of memory words to lock-table entries is the
// paper's Figure 1 (shift by the stripe size, mask by the table size).
package swisstm

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"swisstm/internal/mem"
	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/stm/kernel"
	"swisstm/internal/util"
)

// CMPolicy selects the contention-management scheme used on write/write
// conflicts. The paper's SwissTM uses TwoPhase; Greedy and Timid exist to
// reproduce the ablations of §5 (Figures 10 and 12).
type CMPolicy int

const (
	// TwoPhase is the paper's two-phase manager (Algorithm 2).
	TwoPhase CMPolicy = iota
	// Greedy assigns every transaction a Greedy timestamp at its first
	// start, including short ones (Figure 10's strawman).
	Greedy
	// Timid always aborts the attacker (the TL2/TinySTM default,
	// Figure 12's baseline).
	Timid
)

func (p CMPolicy) String() string {
	switch p {
	case TwoPhase:
		return "two-phase"
	case Greedy:
		return "greedy"
	default:
		return "timid"
	}
}

// Config parameterizes an Engine. ArenaWords, StripeWords, TableBits and
// Obs are the fields of kernel.WordConfig, which TL2 and TinySTM take as
// their whole Config, and mean what they mean there.
type Config struct {
	ArenaWords  int
	StripeWords int
	TableBits   uint
	Obs         *obs.TxnObs
	// Policy is the contention-management scheme (default TwoPhase).
	Policy CMPolicy
	// NoBackoff disables the randomized linear back-off after rollbacks
	// (Figure 11's ablation).
	NoBackoff bool
}

const (
	rLocked  = uint64(1) // r-lock value while its owner is committing
	infinity = ^uint64(0)
	// wn is the paper's Wn: the write count at which a two-phase
	// transaction enters its second (Greedy) phase.
	wn = 10
)

// lockEntry is one stripe's lock-table entry, the paper's Figure 1: the
// r-lock and the w-lock side by side. It is 16 bytes, so four stripes share
// a 64-byte line and a stripe's two words are never on two lines.
type lockEntry struct {
	r atomic.Uint64 // version<<1 when unlocked; 1 when locked
	w atomic.Uint32 // 0 when unlocked; else kernel.Tag(owner) | write-log index
}

// Engine is a SwissTM instance: an arena plus its lock table and global
// counters. Field order is cache-line-aware: the read-mostly mapping
// state (the kernel.Heap, the lock-table slice) sits together and is
// never written after New, while the two global counters — the hottest
// write-shared words in the system — are each padded onto a private line
// so a committer bumping commitTS does not invalidate the line holding
// greedyTS (or the mapping state) in every other core's cache.
type Engine struct {
	cfg Config
	kernel.Heap
	locks []lockEntry // a mem.NewTable: valid while the engine is reachable

	_        mem.CacheLinePad
	commitTS mem.PaddedUint64 // global commit counter (Algorithm 1)
	greedyTS mem.PaddedUint64 // Greedy timestamp source (Algorithm 2)
	// threads maps an owner tag (id + 1) back to its descriptor. Written
	// by NewThread, read only when the contention manager must arbitrate
	// against a second-phase attacker (cmShouldAbort).
	threads [stm.MaxThreads]atomic.Pointer[txn]
}

// New creates a SwissTM engine.
func New(cfg Config) *Engine {
	h := kernel.NewHeap("swisstm", &kernel.WordConfig{
		ArenaWords: cfg.ArenaWords, StripeWords: cfg.StripeWords, TableBits: cfg.TableBits,
	})
	e := &Engine{cfg: cfg, Heap: h}
	e.locks = mem.NewTable[lockEntry](e, h.Entries())
	return e
}

// Name implements stm.STM.
func (e *Engine) Name() string {
	if e.cfg.Policy != TwoPhase {
		return fmt.Sprintf("SwissTM(%s)", e.cfg.Policy)
	}
	return "SwissTM"
}

// txn is a transaction descriptor. One descriptor per thread is reused
// across that thread's transactions.
type txn struct {
	e *Engine
	// locks, words and shift are e.locks, e.Words and e.Shift, the three a
	// read (and the commit) indexes, held here so they are one hop away; e
	// keeps the engine, and so the mapped table, reachable.
	locks   []lockEntry
	words   []atomic.Uint64
	shift   uint
	tag     uint32 // kernel.Tag(id): the owner bits of every w-lock word this thread installs
	validTS uint64
	cmTS    atomic.Uint64 // ∞ in phase one; Greedy timestamp in phase two
	status  atomic.Uint32 // 0 active, 1 killed by another transaction's CM
	rs      kernel.ReadSet
	// log is the write log. A stripe's w-lock names its owner and the
	// entry's position in the owner's log, which makes the lock table
	// itself the write-set lookup structure (as in the C implementation).
	log kernel.RedoLog
	kernel.Thread
}

// NewThread implements stm.STM. The id is the thread's identity in the
// lock table (w-lock words carry it), so it takes over the id from any
// descriptor registered under it before; see stm.STM.NewThread.
func (e *Engine) NewThread(id int) stm.Thread {
	t := &txn{
		Thread: kernel.NewThread("swisstm", id, uint64(id)*0x9e3779b9+1, e.cfg.Obs),
		e:      e,
		locks:  e.locks,
		words:  e.Words,
		shift:  e.Shift,
		tag:    kernel.Tag(id),
		log:    kernel.NewRedoLog(e.Width),
	}
	t.rs = kernel.NewReadSet(t, len(e.locks))
	t.cmTS.Store(infinity)
	e.threads[id].Store(t)
	return t
}

// Begin implements stm.Thread: start one read-write attempt.
func (t *txn) Begin(restart bool) stm.Tx {
	t.begin(restart)
	return t
}

// BeginRO implements stm.Thread: a declared read-only attempt gets the
// descriptor as its roTx view, whose method set runs the read-only
// protocol with no mode branches on the read-write fast path.
func (t *txn) BeginRO(bool) stm.TxRO {
	t.beginRO()
	return (*roTx)(t)
}

// Unwind implements stm.Thread: triage a panic recovered mid-body. The
// rollback signal marks an already-bookkept abort; anything else is a
// foreign panic (bug in user code, arena exhaustion) — release write
// locks so other threads are not wedged and let the caller propagate it.
func (t *txn) Unwind(r any) bool {
	if t.Thread.Unwind(r) {
		return true
	}
	t.releaseWLocks()
	return false
}

// AbortUser implements stm.Thread: roll back because the body returned an
// error. Locks released, buffered writes dropped, no retry; the checked
// delivery keeps the AbortsUnwound/AbortsReturned partition exact.
func (t *txn) AbortUser() {
	t.abort()
	t.AbortedUser()
}

// Backoff implements stm.Thread: kernel.Thread.Backoff, with the wait left
// out under NoBackoff.
func (t *txn) Backoff() {
	t.Succ++
	if !t.e.cfg.NoBackoff {
		util.BackoffLinear(t.Rng, t.Succ)
	}
}

// begin is Algorithm 1's start: snapshot the commit counter, then
// cm-start (Algorithm 2 lines 1-2: a fresh transaction resets its
// timestamp to ∞; a restarted one keeps it, preserving Greedy's
// starvation-freedom for long transactions). status and cmTS are reset
// only when dirty: an atomic store is a locked instruction, and a short
// transaction that was never killed and never left phase one finds both
// clean. A kill landing after the status load reaches this transaction
// instead of the one it was aimed at — the spurious retry cmShouldAbort
// already accounts for.
func (t *txn) begin(restart bool) {
	t.validTS = t.e.commitTS.Load()
	if t.status.Load() != 0 {
		t.status.Store(0)
	}
	t.rs.Clear()
	t.log.Reset()
	if !restart {
		if t.e.cfg.Policy == Greedy {
			t.cmTS.Store(t.e.greedyTS.Add(1))
		} else if t.cmTS.Load() != infinity {
			t.cmTS.Store(infinity)
		}
	}
}

// beginRO starts a declared read-only attempt (DESIGN.md §9.3): snapshot
// the commit counter, empty the read set — and nothing else. The write
// log is invariantly empty between transactions (commit and abort both
// truncate it) and a read-only transaction never installs a w-lock, so no
// CM can kill it (status and cmTS stay untouched).
func (t *txn) beginRO() {
	t.validTS = t.e.commitTS.Load()
	t.rs.Clear()
}

func (t *txn) killed() bool { return t.status.Load() != 0 }

// ReadField implements stm.Tx: Algorithm 1's read-word. A read that cannot
// proceed must interrupt the user closure, so an abort unwinds with the
// pre-allocated signal. The fast path makes no call: waiting out a
// committing owner, a log that must grow, extension and abort are the
// out-of-line readSlow and readNewer, which the read-only view shares.
func (t *txn) ReadField(h stm.Handle, field uint32) stm.Word {
	if t.killed() {
		t.Stat.AbortsKilled++
		t.abort()
		panic(stm.SignalRollback)
	}
	a := stm.Addr(h) + field
	// Index the lock table through a local slice header masked by its own
	// length: the compiler proves the access in bounds (no check).
	locks := t.locks
	i := int(a>>t.shift) & (len(locks) - 1)
	// The w-lock lookup exists only for read-after-write; a transaction
	// that has written nothing cannot own any w-lock, so read-only
	// transactions skip the shared-table probe entirely.
	if t.log.Len() != 0 {
		if idx, mine := kernel.OwnsTag(locks[i].w.Load(), t.tag); mine {
			return t.readOwn(a, idx)
		}
	}
	// Consistent double-read of r-lock around the data word (lines 8-15).
	w, val, ok := kernel.Sample(&locks[i].r, &t.words[a])
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
	return t.readSlow(a, true)
}

// readOwn is read-after-write: the value from our own write log (line 6),
// entry idx. Unwritten words of an owned stripe are stable in memory
// because we hold the w-lock.
func (t *txn) readOwn(a stm.Addr, idx uint32) stm.Word {
	if v, ok := t.log.At(idx).Get(a); ok {
		return v
	}
	return t.words[a].Load()
}

// readSlow is the double read again, for a read whose first sample found
// the stripe r-locked or moving: the owner is committing it and will
// release momentarily, so wait. Only a read-write attempt (rw, as its
// caller knows) checks for a kill while it waits: a read-only one holds no
// w-lock, so no CM ever targets it, and a kill aimed at the thread's
// previous attempt is not its to act on.
func (t *txn) readSlow(a stm.Addr, rw bool) stm.Word {
	i := int(a>>t.shift) & (len(t.locks) - 1)
	for spin := 1; ; spin++ {
		if w, val, ok := kernel.Sample(&t.locks[i].r, &t.words[a]); ok {
			if w>>1 <= t.validTS && t.rs.TestAndSet(uint32(i)) {
				t.Stat.ReadsDeduped++
				return val
			}
			return t.readNewer(uint32(i), w, val)
		}
		if spin&0x3f == 0x3f {
			if rw && t.killed() {
				t.Stat.AbortsKilled++
				t.abort()
				panic(stm.SignalRollback)
			}
			runtime.Gosched()
		}
	}
}

// readNewer admits val, read from stripe idx at r-lock word w, where the
// fast path could not. Within the snapshot it is a first read (the caller
// set the stripe's bit), logged by an append that may grow the log.
// Beyond it, read-set dedup decides (DESIGN.md §7.1). A stripe already
// logged needs no look at its entry: every logged version is ≤ validTS,
// and a logged stripe whose unlocked version is ≤ validTS has not changed
// since it was logged. So a logged stripe read beyond the snapshot means
// the first read is stale, every future extension would fail on its
// entry, and the only difference from logging a duplicate is that we
// abort now instead of at the next validation (dedup_test.go). A first
// read beyond it extends the snapshot.
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

// WriteField implements stm.Tx: Algorithm 1's write-word, eager w-lock
// acquisition (write/write conflicts surface immediately) and redo-log
// buffering (read/write conflicts stay invisible until commit). An eager
// write conflict interrupts the user closure with the unwinding signal.
func (t *txn) WriteField(h stm.Handle, field uint32, v stm.Word) {
	if t.killed() {
		t.Stat.AbortsKilled++
		t.abort()
		panic(stm.SignalRollback)
	}
	a := stm.Addr(h) + field
	idx := t.e.Stripe(a)
	wl := &t.locks[idx].w
	for spin := 0; ; spin++ {
		w := wl.Load()
		if idx, mine := kernel.OwnsTag(w, t.tag); mine {
			t.log.At(idx).Set(a, v)
			return
		}
		if w != 0 {
			// Write/write conflict: ask the contention manager
			// (Algorithm 1 line 26).
			if t.cmShouldAbort(w) {
				t.Stat.AbortsWW++
				t.abort()
				panic(stm.SignalRollback)
			}
			// CM said wait for the owner to finish.
			if t.killed() {
				t.Stat.AbortsKilled++
				t.abort()
				panic(stm.SignalRollback)
			}
			if spin&0x3f == 0x3f {
				runtime.Gosched()
			}
			continue
		}
		t.log.Next(idx, t.e.StripeBase(a)).Set(a, v)
		if wl.CompareAndSwap(0, t.tag|uint32(t.log.Len())) {
			t.log.Push() // the entry joins the write log only once the lock is ours
			break
		}
	}
	// Opacity guard (lines 31-32): if the stripe moved past our snapshot
	// we must revalidate before continuing.
	if rv := t.locks[idx].r.Load(); rv != rLocked && rv>>1 > t.validTS && !t.extend() {
		t.Stat.AbortsValidRead++
		t.abort()
		panic(stm.SignalRollback)
	}
	t.cmOnWrite()
}

// Commit implements stm.Thread: Algorithm 1's commit. It reports false
// when the transaction aborted; commit-time conflicts take the checked
// return path and never unwind (DESIGN.md §8).
func (t *txn) Commit() bool {
	if t.killed() {
		t.Stat.AbortsKilled++
		return t.commitAbort()
	}
	if t.log.Len() == 0 { // read-only fast path (line 35)
		t.Committed(len(t.rs.Log), 0)
		return true
	}
	// Lock the r-locks of all written stripes so readers cannot observe a
	// partially written state.
	wlog, locks := t.log.Entries(), t.locks
	for i := range wlog {
		we := &wlog[i]
		we.Saved = locks[we.Idx].r.Swap(rLocked) // only the w-lock owner writes it
	}
	ts := t.e.commitTS.Add(1)
	if ts > t.validTS+1 && !t.validate() {
		for i := range wlog {
			locks[wlog[i].Idx].r.Store(wlog[i].Saved)
		}
		t.Stat.AbortsValidCommit++
		return t.commitAbort()
	}
	newRLock := ts << 1
	for i := range wlog {
		we := &wlog[i]
		we.WriteBack(t.words)
		locks[we.Idx].r.Store(newRLock)
		locks[we.Idx].w.Store(0)
	}
	// Truncate the write log here rather than at the next begin: the log
	// is then invariantly empty between transactions, which is what lets
	// beginRO skip write-set init entirely (a stale log would make a later
	// read-only abort release stripes it does not own).
	t.log.Reset()
	t.Committed(len(t.rs.Log), len(wlog))
	return true
}

// CommitRO implements stm.Thread: a declared read-only transaction's
// reads were validated (and extended) incrementally, no lock is held and
// no CM can have killed it, so there is nothing left to check or publish.
func (t *txn) CommitRO() bool {
	t.CommittedRO(len(t.rs.Log))
	return true
}

// validate re-checks every read-log entry (Algorithm 1 lines 50-53).
func (t *txn) validate() bool {
	t.Stat.Validations++
	t.Stat.ValidationReads += uint64(len(t.rs.Log))
	locks := t.locks
	for _, re := range t.rs.Log {
		cur := locks[re.Idx].r.Load()
		if cur == re.Ver {
			continue
		}
		// Changed or locked: still fine if we are the one holding it
		// (we locked our own written stripes at commit). The single-result
		// owner test keeps validate within the inlining budget.
		if cur != rLocked || kernel.TagOf(locks[re.Idx].w.Load()) != t.tag {
			return false
		}
	}
	return true
}

// extend is Algorithm 1's extend: revalidate, then advance valid-ts.
func (t *txn) extend() bool {
	ts := t.e.commitTS.Load()
	if t.validate() {
		t.validTS = ts
		return true
	}
	return false
}

// abort performs the rollback bookkeeping — release write locks, count
// the abort — without deciding the delivery mechanism: callers either
// return a checked false up to the retry loop or panic with the
// pre-allocated signal when user code must be interrupted.
func (t *txn) abort() {
	t.releaseWLocks()
	t.Aborted(len(t.rs.Log))
}

// commitAbort delivers a commit-time abort as a checked return.
func (t *txn) commitAbort() bool {
	t.abort()
	t.Stat.AbortsReturned++
	return false
}

func (t *txn) releaseWLocks() {
	wlog, locks := t.log.Entries(), t.locks
	for i := range wlog {
		locks[wlog[i].Idx].w.Store(0)
	}
	t.log.Reset()
}

// Restart implements stm.Tx: a user-requested retry always unwinds (it
// must escape the user closure).
func (t *txn) Restart() {
	t.abort()
	t.Stat.AbortsExplicit++
	panic(stm.SignalRestart)
}

// cmShouldAbort is Algorithm 2's cm-should-abort, given the w-lock word
// the attacker (t) found: true means t must abort itself; false means it
// should wait for the owner to finish (after the owner has been killed,
// when the attacker has priority). Only a second-phase attacker needs the
// owner's descriptor, so only that path pays the thread-table lookup.
func (t *txn) cmShouldAbort(w uint32) bool {
	switch t.e.cfg.Policy {
	case Timid:
		return true
	default: // TwoPhase and Greedy share the arbitration rule
		myTS := t.cmTS.Load()
		if myTS == infinity {
			return true // phase one: abort self (line 6)
		}
		owner := t.e.threads[kernel.TagID(w)].Load()
		if owner.cmTS.Load() < myTS {
			return true // older owner wins (line 8)
		}
		// We have priority: kill the owner and wait for it to release
		// (line 9). The CAS may hit a later transaction of the same
		// thread (descriptor reuse); that only causes a spurious retry
		// of that transaction, never a safety violation.
		owner.status.CompareAndSwap(0, 1)
		t.Stat.WaitsCM++
		return false
	}
}

// cmOnWrite is Algorithm 2's cm-on-write: upon the Wn-th write the
// transaction enters the second phase and draws a Greedy timestamp.
func (t *txn) cmOnWrite() {
	if t.e.cfg.Policy != TwoPhase {
		return
	}
	if t.cmTS.Load() == infinity && t.log.Len() == wn {
		t.cmTS.Store(t.e.greedyTS.Add(1))
	}
}

// Object API: an object is a contiguous block of words (DESIGN.md §3.1).

// NewObject implements stm.Tx.
func (t *txn) NewObject(fields uint32) stm.Handle { return stm.Handle(t.e.Arena().Alloc(fields)) }

// NewObjects implements stm.Tx.
func (t *txn) NewObjects(dst []stm.Handle, f uint32, vals []stm.Word) { t.e.NewObjects(dst, f, vals) }

// roTx is the transaction view BeginRO returns, the descriptor under a
// second method set: its read runs the read-only protocol (no write-log
// probe, no kill checks) with zero mode branches on either path. It
// implements stm.TxRO and no write method, so a read-only body cannot reach a
// write method even by type assertion.
type roTx txn

// ReadField implements stm.TxRO: ReadField's double read, dedup and
// extension, minus the write-log probe (a read-only transaction owns no
// w-lock) and minus the kill checks (no w-lock means no CM ever targets
// us).
func (r *roTx) ReadField(h stm.Handle, field uint32) stm.Word {
	t := (*txn)(r)
	a := stm.Addr(h) + field
	locks := t.locks
	i := int(a>>t.shift) & (len(locks) - 1)
	w, val, ok := kernel.Sample(&locks[i].r, &t.words[a])
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
	return t.readSlow(a, false)
}

// Restart implements stm.TxRO.
func (r *roTx) Restart() { (*txn)(r).Restart() }

var _ stm.STM = (*Engine)(nil)
var _ stm.Thread = (*txn)(nil)
var _ stm.Tx = (*txn)(nil)
var _ stm.TxRO = (*roTx)(nil)
