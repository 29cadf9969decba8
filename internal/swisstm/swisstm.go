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
	// PrivatizationSafe enables the quiescence scheme sketched in the
	// paper's §6: every committing update transaction waits until all
	// transactions that started before its commit have validated,
	// committed or aborted. Afterwards, data made private by the commit
	// (e.g. an unlinked node) can be accessed non-transactionally with no
	// risk of a belated redo-log write-back or a zombie reader. The paper
	// predicts (and BenchmarkPrivatizationSafeReadHeavy confirms) a
	// significant cost.
	PrivatizationSafe bool
}

const (
	rLocked  = uint64(1) // r-lock value while its owner is committing
	infinity = ^uint64(0)
	// wn is the paper's Wn: the write count at which a two-phase
	// transaction enters its second (Greedy) phase.
	wn = 10
	// A w-lock word is 0 when free, otherwise ownerTag<<24 | write-log
	// index, where ownerTag is the owner's thread id + 1 (DESIGN.md §7).
	// A write log holds one entry per lock-table entry, so
	// kernel.MaxTableBits bounds the index; the constant below fails to
	// compile should MaxThreads outgrow the tag's eight bits.
	wTagShift = kernel.MaxTableBits
	wIdxMask  = uint32(1)<<wTagShift - 1
	_         = uint8(stm.MaxThreads + 1)
)

// lockEntry is one stripe's lock-table entry, the paper's Figure 1: the
// r-lock and the w-lock side by side. It is 16 bytes, so four stripes share
// a 64-byte line and a stripe's two words are never on two lines.
type lockEntry struct {
	r atomic.Uint64 // version<<1 when unlocked; 1 when locked
	w atomic.Uint32 // 0 when unlocked; else owner tag<<24 | write-log index
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
	locks []lockEntry

	_        mem.CacheLinePad
	commitTS mem.PaddedUint64 // global commit counter (Algorithm 1)
	greedyTS mem.PaddedUint64 // Greedy timestamp source (Algorithm 2)
	// activity publishes each thread's in-flight snapshot timestamp + 1
	// (0 = no transaction running); used by the quiescence scheme. One
	// padded slot per thread: each slot is stored by exactly one thread
	// but polled by every committer, so unpadded slots false-share
	// heavily under PrivatizationSafe (see BenchmarkActivitySlotLayout).
	activity [stm.MaxThreads]mem.PaddedUint64
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
	return &Engine{
		cfg:   cfg,
		Heap:  h,
		locks: make([]lockEntry, h.Entries()),
	}
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
	e       *Engine
	tag     uint32 // (id+1)<<24: the owner bits of every w-lock word this thread installs
	validTS uint64
	cmTS    atomic.Uint64 // ∞ in phase one; Greedy timestamp in phase two
	status  atomic.Uint32 // 0 active, 1 killed by another transaction's CM
	rs      kernel.ReadSet
	// log is the write log. A stripe's w-lock names its owner and the
	// entry's position in the owner's log, which makes the lock table
	// itself the write-set lookup structure (as in the C implementation).
	log       kernel.RedoLog
	quiesceTS uint64 // commit timestamp to quiesce on (privatization safety)
	roV       roTx   // pre-allocated read-only view returned by BeginRO
	kernel.Thread
}

// NewThread implements stm.STM. The id is the thread's identity in the
// lock table (w-lock words carry it), so it takes over the id from any
// descriptor registered under it before; see stm.STM.NewThread.
func (e *Engine) NewThread(id int) stm.Thread {
	t := &txn{
		Thread: kernel.NewThread("swisstm", id, uint64(id)*0x9e3779b9+1, e.cfg.Obs),
		e:      e,
		tag:    uint32(id+1) << wTagShift,
		rs:     kernel.NewReadSet(len(e.locks)),
		log:    kernel.NewRedoLog(e.Width),
	}
	t.roV.t = t
	t.cmTS.Store(infinity)
	e.threads[id].Store(t)
	return t
}

// Begin implements stm.Thread: start one read-write attempt.
func (t *txn) Begin(restart bool) stm.Tx {
	t.RO = false
	t.begin(restart)
	return t
}

// BeginRO implements stm.Thread: a declared read-only attempt gets the
// pre-allocated roTx view, whose method set runs the read-only protocol
// with no mode branches on the read-write fast path.
func (t *txn) BeginRO(bool) stm.TxRO {
	t.RO = true
	t.beginRO()
	return &t.roV
}

// Commit implements stm.Thread: try to commit the current attempt, and on
// success under PrivatizationSafe deactivate and quiesce.
func (t *txn) Commit() bool {
	var ok bool
	if t.RO {
		ok = t.commitRO()
	} else {
		ok = t.commit()
	}
	if ok && t.e.cfg.PrivatizationSafe {
		t.e.activity[t.ID].Store(0)
		if t.quiesceTS != 0 {
			t.e.quiesce(t.ID, t.quiesceTS)
			t.quiesceTS = 0
		}
	}
	return ok
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
	if t.e.cfg.PrivatizationSafe {
		t.e.activity[t.ID].Store(0)
	}
	return false
}

// AbortUser implements stm.Thread: roll back because the body returned an
// error. Locks released, buffered writes dropped, no retry; the checked
// delivery keeps the AbortsUnwound/AbortsReturned partition exact.
func (t *txn) AbortUser() {
	t.abort()
	t.AbortedUser()
	if t.e.cfg.PrivatizationSafe {
		t.e.activity[t.ID].Store(0)
	}
}

// Backoff implements stm.Thread: kernel.Thread.Backoff, after deactivating
// under PrivatizationSafe, and with the wait left out under NoBackoff.
func (t *txn) Backoff() {
	if t.e.cfg.PrivatizationSafe {
		t.e.activity[t.ID].Store(0)
	}
	t.Succ++
	if !t.e.cfg.NoBackoff {
		util.BackoffLinear(t.Rng, t.Succ)
	}
}

// quiesce waits until every other thread's in-flight transaction either
// finished or has validated at a snapshot no older than ts (§6's scheme).
func (e *Engine) quiesce(self int, ts uint64) {
	for i := range e.activity {
		if i == self {
			continue
		}
		for spin := 0; ; spin++ {
			v := e.activity[i].Load()
			if v == 0 || v > ts {
				break
			}
			if spin&0x3f == 0x3f {
				runtime.Gosched()
			}
		}
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
	if t.e.cfg.PrivatizationSafe {
		t.e.activity[t.ID].Store(t.validTS + 1)
	}
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
	if t.e.cfg.PrivatizationSafe {
		t.e.activity[t.ID].Store(t.validTS + 1)
	}
	t.rs.Clear()
}

func (t *txn) killed() bool { return t.status.Load() != 0 }

// Load implements stm.Tx. A read that cannot proceed must interrupt the
// user closure, so this thin wrapper converts load's checked abort into
// the single unwinding panic (the pre-allocated signal).
func (t *txn) Load(a stm.Addr) stm.Word {
	v, ok := t.load(a)
	if !ok {
		panic(stm.SignalRollback)
	}
	return v
}

// load implements Algorithm 1's read-word. ok=false means the
// transaction aborted (bookkeeping already done by abort()).
func (t *txn) load(a stm.Addr) (stm.Word, bool) {
	if t.killed() {
		t.Stat.AbortsKilled++
		t.abort()
		return 0, false
	}
	// Index the lock table through a local slice header masked by its own
	// length: the compiler proves the access in bounds (no check) and the
	// engine pointer is dereferenced once.
	locks := t.e.locks
	i := int(a>>t.e.Shift) & (len(locks) - 1)
	idx := uint32(i)
	// The w-lock lookup exists only for read-after-write; a transaction
	// that has written nothing cannot own any w-lock, so read-only
	// transactions skip the shared-table probe entirely.
	if t.log.Len() != 0 {
		if w := t.e.locks[idx].w.Load(); w&^wIdxMask == t.tag {
			// Read-after-write: return the value from our own write log
			// (line 6). Unwritten words of an owned stripe are stable in
			// memory because we hold the w-lock.
			if v, ok := t.log.At(w & wIdxMask).Get(a); ok {
				return v, true
			}
			return t.e.Words[a].Load(), true
		}
	}
	// Consistent double-read of r-lock around the data word (lines 8-15).
	rl := &locks[i].r
	var v1 uint64
	var val stm.Word
	for spin := 0; ; spin++ {
		v1 = rl.Load()
		if v1 == rLocked {
			// The owner is committing this stripe; it will release
			// momentarily. Reading would be inconsistent, so wait.
			if spin&0x3f == 0x3f {
				if t.killed() {
					t.Stat.AbortsKilled++
					t.abort()
					return 0, false
				}
				runtime.Gosched()
			}
			continue
		}
		val = t.e.Words[a].Load()
		if rl.Load() == v1 {
			break
		}
	}
	// Read-set dedup: a stripe already in the read log needs no second
	// entry, so validate()/extend() scale with *distinct* stripes, not
	// total reads. Whether the re-read agrees with the logged entry needs
	// no look at that entry: every logged version is ≤ validTS, and a
	// logged stripe whose unlocked version is ≤ validTS has not changed
	// since it was logged (DESIGN.md §7.1). So v1 within the snapshot is
	// the logged value; v1 beyond it means the first read is stale, every
	// future extension would fail on its entry, and the only difference
	// from logging a duplicate is that we abort now instead of at the next
	// validation (dedup_test.go).
	if t.rs.TestAndSet(idx) {
		if v1>>1 <= t.validTS {
			t.Stat.ReadsDeduped++
			return val, true
		}
	} else {
		t.rs.Log = append(t.rs.Log, kernel.Read{Idx: idx, Ver: v1})
		if v1>>1 <= t.validTS || t.extend() {
			return val, true
		}
	}
	t.Stat.AbortsValid++
	t.Stat.AbortsValidRead++
	t.abort()
	return 0, false
}

// loadRO is the declared-read-only read protocol: the consistent
// double-read plus dedup/extension of load, minus the write-log probe (a
// read-only transaction owns no w-lock) and minus the kill checks (no
// w-lock means no CM ever targets us). ok=false means the transaction
// aborted.
func (t *txn) loadRO(a stm.Addr) (stm.Word, bool) {
	locks := t.e.locks
	i := int(a>>t.e.Shift) & (len(locks) - 1)
	idx := uint32(i)
	rl := &locks[i].r
	var v1 uint64
	var val stm.Word
	for spin := 0; ; spin++ {
		v1 = rl.Load()
		if v1 == rLocked {
			if spin&0x3f == 0x3f {
				runtime.Gosched()
			}
			continue
		}
		val = t.e.Words[a].Load()
		if rl.Load() == v1 {
			break
		}
	}
	// Same read-set dedup discipline as load (DESIGN.md §7.1).
	if t.rs.TestAndSet(idx) {
		if v1>>1 <= t.validTS {
			t.Stat.ReadsDeduped++
			return val, true
		}
	} else {
		t.rs.Log = append(t.rs.Log, kernel.Read{Idx: idx, Ver: v1})
		if v1>>1 <= t.validTS || t.extend() {
			return val, true
		}
	}
	t.Stat.AbortsValid++
	t.Stat.AbortsValidRead++
	t.abort()
	return 0, false
}

// Store implements stm.Tx; like Load it converts store's checked abort
// into the unwinding signal, since an eager write conflict interrupts
// the user closure.
func (t *txn) Store(a stm.Addr, v stm.Word) {
	if !t.store(a, v) {
		panic(stm.SignalRollback)
	}
}

// store implements Algorithm 1's write-word: eager w-lock acquisition
// (write/write conflicts surface immediately), redo-log buffering
// (read/write conflicts stay invisible until commit). ok=false means the
// transaction aborted.
func (t *txn) store(a stm.Addr, v stm.Word) bool {
	if t.killed() {
		t.Stat.AbortsKilled++
		t.abort()
		return false
	}
	idx := t.e.Stripe(a)
	wl := &t.e.locks[idx].w
	for spin := 0; ; spin++ {
		w := wl.Load()
		if w&^wIdxMask == t.tag {
			t.log.At(w&wIdxMask).Set(a, v)
			return true
		}
		if w != 0 {
			// Write/write conflict: ask the contention manager
			// (Algorithm 1 line 26).
			if t.cmShouldAbort(w) {
				t.Stat.AbortsWW++
				t.abort()
				return false
			}
			// CM said wait for the owner to finish.
			if t.killed() {
				t.Stat.AbortsKilled++
				t.abort()
				return false
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
	if rv := t.e.locks[idx].r.Load(); rv != rLocked && rv>>1 > t.validTS && !t.extend() {
		t.Stat.AbortsValid++
		t.Stat.AbortsValidRead++
		t.abort()
		return false
	}
	t.cmOnWrite()
	return true
}

// commit implements Algorithm 1's commit. It reports false when the
// transaction aborted; commit-time conflicts take the checked return
// path and never unwind (DESIGN.md §8).
func (t *txn) commit() bool {
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
	wlog := t.log.Entries()
	for i := range wlog {
		we := &wlog[i]
		rl := &t.e.locks[we.Idx].r
		we.Saved = rl.Load() // unlocked: only the w-lock owner locks it
		rl.Store(rLocked)
	}
	ts := t.e.commitTS.Add(1)
	if ts > t.validTS+1 && !t.validate() {
		for i := range wlog {
			t.e.locks[wlog[i].Idx].r.Store(wlog[i].Saved)
		}
		t.Stat.AbortsValid++
		t.Stat.AbortsValidCommit++
		return t.commitAbort()
	}
	newRLock := ts << 1
	for i := range wlog {
		we := &wlog[i]
		we.WriteBack(t.e.Words)
		t.e.locks[we.Idx].r.Store(newRLock)
		t.e.locks[we.Idx].w.Store(0)
	}
	// Truncate the write log here rather than at the next begin: the log
	// is then invariantly empty between transactions, which is what lets
	// beginRO skip write-set init entirely (a stale log would make a later
	// read-only abort release stripes it does not own).
	t.log.Reset()
	if t.e.cfg.PrivatizationSafe {
		t.quiesceTS = ts // quiesce after the descriptor is deactivated
	}
	t.Committed(len(t.rs.Log), len(wlog))
	return true
}

// commitRO commits a declared read-only transaction: every read was
// validated (and extended) incrementally, no lock is held and no CM can
// have killed us, so there is nothing left to check or publish.
func (t *txn) commitRO() bool {
	t.CommittedRO(len(t.rs.Log))
	return true
}

// validate re-checks every read-log entry (Algorithm 1 lines 50-53).
func (t *txn) validate() bool {
	t.Stat.Validations++
	t.Stat.ValidationReads += uint64(len(t.rs.Log))
	for _, re := range t.rs.Log {
		cur := t.e.locks[re.Idx].r.Load()
		if cur == re.Ver {
			continue
		}
		// Changed or locked: still fine if we are the one holding it
		// (we locked our own written stripes at commit).
		if cur == rLocked && t.e.locks[re.Idx].w.Load()&^wIdxMask == t.tag {
			continue
		}
		return false
	}
	return true
}

// extend is Algorithm 1's extend: revalidate, then advance valid-ts.
func (t *txn) extend() bool {
	ts := t.e.commitTS.Load()
	if t.validate() {
		t.validTS = ts
		if t.e.cfg.PrivatizationSafe {
			// Publish the new snapshot so quiescing committers older
			// than it stop waiting for us.
			t.e.activity[t.ID].Store(ts + 1)
		}
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
	wlog := t.log.Entries()
	for i := range wlog {
		t.e.locks[wlog[i].Idx].w.Store(0)
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
		owner := t.e.threads[w>>wTagShift-1].Load()
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

// AllocWords implements stm.Tx.
func (t *txn) AllocWords(n uint32) stm.Addr { return t.e.Arena().Alloc(n) }

// Object API: an object is a contiguous block of words (DESIGN.md §3.1).

// ReadField implements stm.Tx.
func (t *txn) ReadField(h stm.Handle, field uint32) stm.Word {
	return t.Load(stm.Addr(h) + field)
}

// ReadRef implements stm.Tx.
func (t *txn) ReadRef(h stm.Handle, field uint32) stm.Handle {
	return stm.Handle(t.Load(stm.Addr(h) + field))
}

// WriteField implements stm.Tx.
func (t *txn) WriteField(h stm.Handle, field uint32, v stm.Word) {
	t.Store(stm.Addr(h)+field, v)
}

// WriteRef implements stm.Tx.
func (t *txn) WriteRef(h stm.Handle, field uint32, ref stm.Handle) {
	t.Store(stm.Addr(h)+field, stm.Word(ref))
}

// NewObject implements stm.Tx.
func (t *txn) NewObject(fields uint32) stm.Handle {
	return stm.Handle(t.e.Arena().Alloc(fields))
}

// roTx is the transaction view BeginRO returns: its read methods run the
// loadRO fast path (no write-log probe, no kill checks) with zero mode
// branches on either path. It implements stm.TxRO and nothing more, so a
// read-only body cannot reach a write method even by type assertion.
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

// ReadRef implements stm.TxRO.
func (r *roTx) ReadRef(h stm.Handle, field uint32) stm.Handle {
	return stm.Handle(r.Load(stm.Addr(h) + field))
}

// Restart implements stm.TxRO.
func (r *roTx) Restart() { r.t.Restart() }

var _ stm.STM = (*Engine)(nil)
var _ stm.Thread = (*txn)(nil)
var _ stm.Tx = (*txn)(nil)
var _ stm.TxRO = (*roTx)(nil)
