// Package rstm implements an object-based, obstruction-free software
// transactional memory in the style of RSTM version 3 (Marathe et al.,
// "Lowering the Overhead of Software Transactional Memory", TRANSACT
// 2006), the third baseline of the paper's evaluation.
//
// Unlike the word-based engines, RSTM logs whole objects: each object
// holds an atomic pointer to an immutable locator {owner, old, new}. The
// object's current committed data resolves through the owner's status —
// new if the owner committed, old otherwise. Acquiring an object means
// CASing in a fresh locator whose new-data is a private clone; committing
// means a single CAS of the owner's status word, which atomically makes
// every acquired object's clone the current version. Any transaction can
// abort any other by CASing its status (obstruction freedom); who yields
// is decided by a pluggable contention manager (package cm).
//
// The paper exercises four RSTM variants (§2.1): eager vs lazy
// acquisition and visible vs invisible reads; all four are implemented,
// along with the global-commit-counter validation heuristic that bounds
// the cost of invisible-read revalidation.
//
// Per-object cloning gives RSTM its characteristic cost profile — high
// overhead on small, simple objects (Figures 4 and 5) — which this
// implementation reproduces naturally.
package rstm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"swisstm/internal/cm"
	"swisstm/internal/mem"
	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/stm/kernel"
)

// AcquireMode selects when writers acquire objects.
type AcquireMode int

const (
	// Eager acquires at open time (encounter-time W/W detection).
	Eager AcquireMode = iota
	// Lazy acquires at commit time (commit-time W/W detection).
	Lazy
)

func (m AcquireMode) String() string {
	if m == Eager {
		return "eager"
	}
	return "lazy"
}

// ReadMode selects whether readers announce themselves.
type ReadMode int

const (
	// Invisible readers validate their own read sets.
	Invisible ReadMode = iota
	// Visible readers register in per-object slots; writers abort them.
	Visible
)

func (m ReadMode) String() string {
	if m == Invisible {
		return "invisible"
	}
	return "visible"
}

// Config parameterizes an RSTM engine.
type Config struct {
	Acquire AcquireMode
	Reads   ReadMode
	// Manager arbitrates conflicts (default: Polka, the paper's default
	// RSTM configuration).
	Manager cm.Manager
	// Obs, when non-nil, collects per-transaction telemetry at commit, as
	// the word engines' kernel.WordConfig.Obs does (DESIGN.md §11).
	Obs *obs.TxnObs
}

func (c *Config) fill() {
	if c.Manager == nil {
		c.Manager = cm.NewPolka()
	}
}

const (
	statusActive    = uint32(0)
	statusCommitted = uint32(1)
	statusAborted   = uint32(2)
)

// attempt is one execution attempt of a transaction. Locators reference
// the attempt that installed them, so each retry gets a fresh attempt
// object and stale locators keep resolving against the right status.
type attempt struct {
	status atomic.Uint32
	state  *cm.TxState // the owning thread's persistent CM state
}

// locator is the immutable triple an object points at (DSTM design).
type locator struct {
	owner *attempt // nil for pre-initialized clean objects
	old   []stm.Word
	new   []stm.Word
}

// object is one transactional object.
type object struct {
	loc atomic.Pointer[locator]
	// readers is the visible-reader bitmap: bit i set means thread i
	// currently holds a visible read of this object. stm.MaxThreads (64)
	// fits a word exactly, so writer-vs-reader arbitration is O(popcount)
	// over the set bits — each resolved to an attempt through the
	// engine's visible table — instead of the O(visSlots) pointer-slot
	// scan this replaced, and reader registration is one atomic RMW.
	readers atomic.Uint64
}

// chunking of the object table: chunkBits of index inside a chunk.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 14 // 64 Mi objects
)

// Engine is an RSTM instance.
type Engine struct {
	cfg    Config
	next   atomic.Uint64 // next object handle (0 is nil)
	chunks [maxChunks]atomic.Pointer[[chunkSize]object]
	growMu sync.Mutex
	// commits is the global commit counter of RSTM's invisible-read
	// validation heuristic, hardened into a parity lock: even values are
	// stable epochs; a writer makes the counter odd for the short
	// validate-and-flip critical section of its commit. Invisible readers
	// only trust data observed under a stable even value, which makes
	// commit visibility changes atomic with respect to counter changes
	// (plain "validate when the counter moved" has a window in which a
	// reader caches the new counter before the writer's status flip and
	// then misses it — an opacity violation). Padded onto a private cache
	// line: every invisible reader polls it and every writer flips it
	// twice per commit, so sharing a line with the allocator word or the
	// chunk table would put allocator traffic on the hottest line in the
	// engine.
	_       mem.CacheLinePad
	commits mem.PaddedUint64

	// visible publishes each thread's in-flight attempt for the
	// visible-read protocol: an object's reader bitmap names the thread,
	// this table resolves it to the attempt a writer must arbitrate
	// against. A writer that loads a bit may race a completing reader and
	// find the thread's *next* attempt here; killing it causes a spurious
	// retry of that transaction, never a safety violation (the same
	// caveat as SwissTM's kill CAS under descriptor reuse). Slots are
	// padded: each is stored by its own thread but polled by every
	// acquiring writer.
	visible [stm.MaxThreads]paddedAttemptPtr
}

// paddedAttemptPtr keeps per-thread visible-attempt slots on private
// cache lines.
type paddedAttemptPtr struct {
	p atomic.Pointer[attempt]
	_ [mem.CacheLine - 8]byte
}

// New creates an RSTM engine.
func New(cfg Config) *Engine {
	cfg.fill()
	e := &Engine{cfg: cfg}
	e.next.Store(1) // handle 0 is the nil reference
	return e
}

// Name implements stm.STM.
func (e *Engine) Name() string {
	return fmt.Sprintf("RSTM(%s/%s/%s)", e.cfg.Acquire, e.cfg.Reads, e.cfg.Manager.Name())
}

// Arena implements stm.STM. RSTM is object-based and has no word arena.
func (e *Engine) Arena() *mem.Arena { return nil }

func (e *Engine) object(h stm.Handle) *object {
	if h == 0 || uint64(h) >= e.next.Load() {
		panic(fmt.Sprintf("rstm: invalid object handle %#x (next %#x)", uint64(h), e.next.Load()))
	}
	c := e.chunks[h>>chunkBits].Load()
	if c == nil {
		panic(fmt.Sprintf("rstm: handle %#x points into an unallocated chunk", uint64(h)))
	}
	return &c[h&(chunkSize-1)]
}

// newObject allocates an object with nFields zeroed fields.
func (e *Engine) newObject(nFields uint32) stm.Handle {
	h := stm.Handle(e.next.Add(1) - 1)
	ci := h >> chunkBits
	if ci >= maxChunks {
		panic("rstm: object table exhausted")
	}
	if e.chunks[ci].Load() == nil {
		e.growMu.Lock()
		if e.chunks[ci].Load() == nil {
			e.chunks[ci].Store(new([chunkSize]object))
		}
		e.growMu.Unlock()
	}
	o := e.object(h)
	o.loc.Store(&locator{new: make([]stm.Word, nFields)})
	return h
}

// current resolves a locator to the object's current committed data.
func current(loc *locator) []stm.Word {
	if loc.owner == nil || loc.owner.status.Load() == statusCommitted {
		return loc.new
	}
	return loc.old
}

// readEntry records one invisible read for validation.
type readEntry struct {
	obj  *object
	data []stm.Word // the slice observed; pointer identity is the version
}

// lazyWrite is a privately buffered write of the lazy-acquire variant.
type lazyWrite struct {
	obj   *object
	base  []stm.Word // committed data the clone was taken from
	clone []stm.Word
}

// txn is a per-thread transaction context.
type txn struct {
	e        *Engine
	cur      *attempt
	pub      bool // cur escaped into shared state (locator / reader slot)
	state    cm.TxState
	readSet  []readEntry
	writeSet []*object   // eagerly acquired objects (for bookkeeping)
	lazySet  []lazyWrite // lazy mode: private clones
	visSet   []*object   // objects where we occupy a visible-reader slot
	lastCC   uint64      // commit counter at last validation
	// committing marks the window between entering CommitRO/commitInner
	// and the next begin, so the shared maybeValidate can attribute a
	// validation failure to the read phase or the commit phase
	// (stm.Stats.AbortsValidRead vs AbortsValidCommit).
	committing bool
	kernel.Thread
}

// NewThread implements stm.STM.
func (e *Engine) NewThread(id int) stm.Thread {
	return &txn{Thread: kernel.NewThread("rstm", id, uint64(id)*0x2545f491+11, e.cfg.Obs), e: e}
}

// Begin implements stm.Thread.
func (t *txn) Begin(restart bool) stm.Tx {
	t.begin(restart)
	return t
}

// BeginRO implements stm.Thread. A declared read-only transaction skips
// the acquire/arbitration state wholesale: no write or lazy sets, and —
// with invisible reads — no contention-manager bookkeeping either, since
// an invisible read-only attempt is never published and so never
// arbitrates against anyone (DESIGN.md §9.3).
func (t *txn) BeginRO(restart bool) stm.TxRO {
	t.beginRO(restart)
	return (*roTx)(t)
}

// Commit implements stm.Thread: try to commit; a failure is delivered as
// a checked return.
func (t *txn) Commit() bool {
	if !t.commitInner() {
		t.Stat.AbortsReturned++
		return false
	}
	return true
}

// Unwind implements stm.Thread: triage a panic recovered mid-body; a
// foreign panic freezes the attempt and drops visible-reader slots
// before the caller propagates it.
func (t *txn) Unwind(r any) bool {
	if t.Thread.Unwind(r) {
		return true
	}
	t.cur.status.CompareAndSwap(statusActive, statusAborted)
	t.dropVisible()
	return false
}

// AbortUser implements stm.Thread: roll back because the body returned
// an error. Acquired objects revert through the frozen attempt's status
// (stale locators resolve to old data); no retry.
func (t *txn) AbortUser() {
	t.abort(false)
	t.AbortedUser()
}

func (t *txn) begin(restart bool) {
	// Reuse the attempt descriptor whenever the previous attempt never
	// published it: locators and the engine's visible table are the only
	// places other threads can obtain the pointer, so an unpublished
	// descriptor is thread-private and resetting its status is invisible
	// to everyone else. Invisible-read transactions that never wrote —
	// the dominant case in read-heavy workloads — therefore run
	// allocation-free in steady state. A published descriptor must stay
	// frozen forever: stale locators keep resolving current data through
	// its final status.
	if t.cur == nil || t.pub {
		t.cur = &attempt{state: &t.state}
		t.pub = false
	} else {
		t.cur.status.Store(statusActive)
	}
	t.readSet = t.readSet[:0]
	t.writeSet = t.writeSet[:0]
	t.lazySet = t.lazySet[:0]
	t.visSet = t.visSet[:0]
	t.committing = false
	t.lastCC = t.e.stableEpoch()
	t.e.cfg.Manager.OnStart(&t.state, restart)
}

// beginRO starts a declared read-only attempt: descriptor reuse/reset and
// a fresh read set. The write and lazy sets stay untouched (nothing reads
// them in read-only mode), the visible set is invariantly empty between
// transactions (dropVisible truncates it on every outcome), and the
// contention manager is only consulted when reads are visible — an
// invisible read-only attempt never arbitrates.
func (t *txn) beginRO(restart bool) {
	if t.cur == nil || t.pub {
		t.cur = &attempt{state: &t.state}
		t.pub = false
	} else {
		t.cur.status.Store(statusActive)
	}
	t.readSet = t.readSet[:0]
	t.committing = false
	t.lastCC = t.e.stableEpoch()
	if t.e.cfg.Reads == Visible {
		t.e.cfg.Manager.OnStart(&t.state, restart)
	}
}

// abort performs the rollback bookkeeping — freeze the attempt, drop
// visible registrations, count the abort — without deciding the delivery
// mechanism: callers either return a checked false up to the retry loop
// or panic with the pre-allocated signal when user code must be
// interrupted.
func (t *txn) abort(explicit bool) {
	reads := len(t.readSet) + len(t.visSet)
	t.cur.status.CompareAndSwap(statusActive, statusAborted)
	t.dropVisible()
	t.Aborted(reads)
	if explicit {
		t.Stat.AbortsExplicit++
	}
}

// Restart implements stm.Tx: a user-requested retry always unwinds.
func (t *txn) Restart() {
	t.abort(true)
	panic(stm.SignalRestart)
}

// killedAbort reports (and records) a CM kill: true means the
// transaction aborted and the caller must back out.
func (t *txn) killedAbort() bool {
	if t.cur.status.Load() == statusAborted {
		t.Stat.AbortsKilled++
		t.abort(false)
		return true
	}
	return false
}

// resolveConflict runs the contention manager until the conflict with the
// owner of loc clears. It returns true when the attacker may retry the
// open (the victim is gone or was aborted) and false when the manager
// decided the attacker dies (the abort is already recorded).
func (t *txn) resolveConflict(owner *attempt) bool {
	for attemptNo := 0; ; attemptNo++ {
		if owner.status.Load() != statusActive {
			return true // victim finished on its own
		}
		switch t.e.cfg.Manager.Resolve(&t.state, owner.state, attemptNo) {
		case cm.AbortSelf:
			t.Stat.AbortsWW++
			t.abort(false)
			return false
		case cm.AbortOther:
			owner.status.CompareAndSwap(statusActive, statusAborted)
			return true
		case cm.Wait:
			t.Stat.WaitsCM++
			t.e.cfg.Manager.WaitBackoff(t.Rng, attemptNo)
			if t.killedAbort() {
				return false
			}
		}
	}
}

// stableEpoch spins until the commit counter holds a stable (even) epoch
// and returns it.
func (e *Engine) stableEpoch() uint64 {
	for {
		cc := e.commits.Load()
		if cc&1 == 0 {
			return cc
		}
		runtime.Gosched() // a writer is inside its flip section
	}
}

// maybeValidate brings the transaction's epoch up to date, revalidating
// the read set whenever the epoch moved. It reports false (abort
// recorded) on validation failure.
func (t *txn) maybeValidate() bool {
	for {
		cc := t.e.commits.Load()
		if cc == t.lastCC {
			return true
		}
		if cc&1 == 1 {
			runtime.Gosched()
			continue
		}
		if !t.validate() {
			if t.committing {
				t.Stat.AbortsValidCommit++
			} else {
				t.Stat.AbortsValidRead++
			}
			t.abort(false)
			return false
		}
		if t.e.commits.Load() != cc {
			continue // a commit landed mid-validation; redo
		}
		t.lastCC = cc
		return true
	}
}

// openRead returns a consistent snapshot of the object's data for
// reading; ok=false means the transaction aborted. It puts what only a
// read-write attempt needs — the kill check, the lazy-set probe, the
// own-object check — in front of openReadRO.
func (t *txn) openRead(o *object) ([]stm.Word, bool) {
	if t.killedAbort() {
		return nil, false
	}
	// Read-after-write through the lazy buffer.
	for i := range t.lazySet {
		if t.lazySet[i].obj == o {
			return t.lazySet[i].clone, true
		}
	}
	if loc := o.loc.Load(); loc.owner == t.cur {
		return loc.new, true // our own acquired object
	}
	return t.openReadRO(o)
}

func (t *txn) openReadVisible(o *object) ([]stm.Word, bool) {
	// Register in the object's reader bitmap first so a racing writer
	// sees us. Publication order matters: the attempt pointer must be in
	// the engine's visible table before our bit can appear, or a writer
	// could resolve the bit to a stale attempt. The first registration of
	// an attempt (empty visSet — bits are only set while in visSet)
	// publishes; later ones reuse the slot.
	bit := uint64(1) << uint(t.ID)
	if o.readers.Load()&bit == 0 {
		if len(t.visSet) == 0 {
			t.e.visible[t.ID].p.Store(t.cur)
			t.pub = true
		}
		o.readers.Or(bit)
		t.visSet = append(t.visSet, o)
	}
	for {
		loc := o.loc.Load()
		if loc.owner == nil || loc.owner == t.cur ||
			loc.owner.status.Load() != statusActive {
			if t.killedAbort() { // a writer may have aborted us while registering
				return nil, false
			}
			return current(loc), true
		}
		// Read/write conflict with an active writer, detected eagerly
		// because we are visible.
		if !t.resolveConflict(loc.owner) {
			return nil, false
		}
	}
}

// openWrite returns a writable clone of the object's data; ok=false
// means the transaction aborted.
func (t *txn) openWrite(o *object) ([]stm.Word, bool) {
	if t.killedAbort() {
		return nil, false
	}
	if t.e.cfg.Acquire == Lazy {
		return t.openWriteLazy(o)
	}
	for {
		loc := o.loc.Load()
		if loc.owner == t.cur {
			return loc.new, true
		}
		if loc.owner != nil && loc.owner.status.Load() == statusActive {
			if !t.resolveConflict(loc.owner) {
				return nil, false
			}
			continue
		}
		data := current(loc)
		clone := make([]stm.Word, len(data))
		copy(clone, data)
		if o.loc.CompareAndSwap(loc, &locator{owner: t.cur, old: data, new: clone}) {
			t.pub = true
			if !t.afterAcquire(o) {
				return nil, false
			}
			t.writeSet = append(t.writeSet, o)
			return clone, true
		}
	}
}

// afterAcquire implements post-acquire duties shared by both modes:
// aborting visible readers and CM/validation bookkeeping. It reports
// false (abort recorded) when the manager decided the writer dies.
func (t *txn) afterAcquire(o *object) bool {
	t.e.cfg.Manager.OnOpen(&t.state)
	if t.e.cfg.Reads == Visible {
		// Writer vs visible readers: walk the set bits of the reader
		// bitmap (skipping our own) and resolve each through the visible
		// table — O(popcount), not O(slots).
		bm := o.readers.Load() &^ (uint64(1) << uint(t.ID))
		for bm != 0 {
			i := bits.TrailingZeros64(bm)
			bm &= bm - 1
			r := t.e.visible[i].p.Load()
			if r == nil || r == t.cur || r.status.Load() != statusActive {
				continue
			}
			// Eager read/write conflict: writer vs visible reader.
			switch t.e.cfg.Manager.Resolve(&t.state, r.state, 0) {
			case cm.AbortSelf:
				t.Stat.AbortsWW++
				t.abort(false)
				return false
			default:
				// Both AbortOther and Wait kill the reader here: a waiting
				// writer could deadlock against a reader waiting for us,
				// so RSTM's writers always clear visible readers.
				r.status.CompareAndSwap(statusActive, statusAborted)
			}
		}
	}
	if t.e.cfg.Reads == Invisible {
		return t.maybeValidate()
	}
	return true
}

func (t *txn) openWriteLazy(o *object) ([]stm.Word, bool) {
	for i := range t.lazySet {
		if t.lazySet[i].obj == o {
			return t.lazySet[i].clone, true
		}
	}
	// Truly lazy: clone the current committed data without acquiring the
	// object, even if some transaction holds it right now; the
	// write/write conflict, if it persists, surfaces only at commit time
	// (the late detection Figure 6a illustrates). The clone source is
	// routed through openRead: cloning *is* a read, and it must obey the
	// same snapshot discipline (stable epoch + read-set entry), or a
	// transaction could buffer a clone from a newer snapshot than its
	// earlier reads and act on the torn mix before any validation runs.
	data, ok := t.openRead(o)
	if !ok {
		return nil, false
	}
	clone := make([]stm.Word, len(data))
	copy(clone, data)
	t.lazySet = append(t.lazySet, lazyWrite{obj: o, base: data, clone: clone})
	t.e.cfg.Manager.OnOpen(&t.state)
	return clone, true
}

// validate re-checks every invisible read: the object's current data must
// still be the slice we observed.
func (t *txn) validate() bool {
	t.Stat.Validations++
	t.Stat.ValidationReads += uint64(len(t.readSet))
	for i := range t.readSet {
		re := &t.readSet[i]
		loc := re.obj.loc.Load()
		if len(re.data) == 0 {
			continue // zero-field objects have no observable state
		}
		if loc.owner == t.cur {
			// We acquired it after reading; our clone descends from the
			// data we read iff the old pointer matches.
			if (len(loc.old) > 0 && &loc.old[0] == &re.data[0]) ||
				(len(loc.new) > 0 && &loc.new[0] == &re.data[0]) {
				continue
			}
			return false
		}
		cur := current(loc)
		if len(cur) == 0 || &cur[0] != &re.data[0] {
			return false
		}
	}
	return true
}

// CommitRO implements stm.Thread: a declared read-only transaction
// commits with no lazy acquisition, no writer detection, no flip section.
// Invisible reads validate under a stable epoch; visible readers may have
// been killed by a writer, which the status CAS detects. A failure is a
// checked return, as in Commit.
func (t *txn) CommitRO() bool {
	t.committing = true
	rs := len(t.readSet) + len(t.visSet)
	if !t.commitReads() {
		t.Stat.AbortsReturned++
		return false
	}
	t.CommittedRO(rs)
	return true
}

// commitReads commits an attempt that installs no write: invisible reads
// validate under a stable epoch, the status CAS detects a kill, and the
// visible-reader slots are dropped. It reports false (abort recorded)
// when the attempt aborted.
func (t *txn) commitReads() bool {
	if t.e.cfg.Reads == Invisible && len(t.readSet) > 0 && !t.maybeValidate() {
		return false
	}
	if !t.cur.status.CompareAndSwap(statusActive, statusCommitted) {
		t.Stat.AbortsKilled++
		t.abort(false)
		return false
	}
	t.dropVisible()
	return true
}

// commitInner finishes the transaction, reporting false when it aborted.
// All aborts detected here — commit-time acquisition conflicts of the
// lazy mode, read-set validation, CM kills landing at commit — take the
// checked return path through Commit.
func (t *txn) commitInner() bool {
	t.committing = true
	rs := len(t.readSet) + len(t.visSet)
	ws := len(t.writeSet) + len(t.lazySet)
	if t.killedAbort() {
		return false
	}
	// Lazy mode: acquire everything now (commit-time W/W detection).
	for i := range t.lazySet {
		lw := &t.lazySet[i]
		for {
			loc := lw.obj.loc.Load()
			if loc.owner == t.cur {
				break
			}
			if loc.owner != nil && loc.owner.status.Load() == statusActive {
				// Never steal from an active owner: arbitrate first.
				if !t.resolveConflict(loc.owner) {
					return false
				}
				continue
			}
			cur := current(loc)
			if len(cur) > 0 && (len(lw.base) == 0 || &cur[0] != &lw.base[0]) {
				// Someone committed a new version since we cloned:
				// our buffered update is stale.
				t.Stat.LockAcquireFail++
				t.abort(false)
				return false
			}
			if lw.obj.loc.CompareAndSwap(loc, &locator{owner: t.cur, old: cur, new: lw.clone}) {
				t.pub = true
				if !t.afterAcquire(lw.obj) {
					return false
				}
				break
			}
		}
	}
	writer := len(t.lazySet) > 0 || len(t.writeSet) > 0
	if !writer {
		if !t.commitReads() {
			return false
		}
		t.Committed(rs, ws)
		return true
	}
	// Writer: enter the flip section (counter even→odd), validate, flip,
	// leave (odd→even). The section makes the visibility change atomic
	// with respect to the validation heuristic; two concurrent writers
	// whose read and write sets cross cannot both validate-then-flip.
	for {
		cc := t.e.stableEpoch()
		if t.e.commits.CompareAndSwap(cc, cc+1) {
			break
		}
	}
	ok := t.e.cfg.Reads == Visible || len(t.readSet) == 0 || t.validate()
	flipped := false
	if ok {
		flipped = t.cur.status.CompareAndSwap(statusActive, statusCommitted)
	}
	t.e.commits.Add(1) // leave the flip section (back to even)
	if !ok {
		t.Stat.AbortsValidCommit++
		t.abort(false)
		return false
	}
	if !flipped {
		t.Stat.AbortsKilled++
		t.abort(false)
		return false
	}
	t.dropVisible()
	t.Committed(rs, ws)
	return true
}

// dropVisible clears our visible-reader registrations: one bit per
// registered object.
func (t *txn) dropVisible() {
	if len(t.visSet) == 0 {
		return
	}
	bit := uint64(1) << uint(t.ID)
	for _, o := range t.visSet {
		o.readers.And(^bit)
	}
	t.visSet = t.visSet[:0]
}

// openReadRO is openRead for declared read-only transactions: no lazy
// write-set probe (writes are impossible) and, with invisible reads, no
// kill checks — an unpublished read-only attempt is unreachable by any
// contention manager.
func (t *txn) openReadRO(o *object) ([]stm.Word, bool) {
	if t.e.cfg.Reads == Visible {
		return t.openReadVisible(o)
	}
	// Invisible read: resolve current data under a stable epoch; an
	// active foreign owner does not conflict yet (its redo clone stays
	// private until it commits).
	for {
		if !t.maybeValidate() {
			return nil, false
		}
		cc := t.lastCC
		loc := o.loc.Load()
		data := current(loc)
		if t.e.commits.Load() != cc {
			continue // a commit raced with the read; resample
		}
		t.readSet = append(t.readSet, readEntry{obj: o, data: data})
		return data, true
	}
}

// ReadField implements stm.Tx. A read that cannot proceed must interrupt
// the user closure, so this thin wrapper converts openRead's checked
// abort into the single unwinding panic.
func (t *txn) ReadField(h stm.Handle, field uint32) stm.Word {
	data, ok := t.openRead(t.e.object(h))
	if !ok {
		panic(stm.SignalRollback)
	}
	return data[field]
}

// WriteField implements stm.Tx.
func (t *txn) WriteField(h stm.Handle, field uint32, v stm.Word) {
	data, ok := t.openWrite(t.e.object(h))
	if !ok {
		panic(stm.SignalRollback)
	}
	data[field] = v
}

// NewObject implements stm.Tx.
func (t *txn) NewObject(fields uint32) stm.Handle { return t.e.newObject(fields) }

// NewObjects implements stm.Tx: a new locator's data is not yet shared.
func (t *txn) NewObjects(dst []stm.Handle, fields uint32, vals []stm.Word) {
	stm.ObjectWords(len(dst), fields, vals)
	for i := range dst {
		dst[i] = t.e.newObject(fields)
		if vals != nil {
			copy(t.e.object(dst[i]).loc.Load().new, vals[uint32(i)*fields:])
		}
	}
}

// roTx is the transaction view BeginRO returns, the descriptor under a
// second method set: its read methods run the openReadRO fast path with no
// mode branch, and it implements stm.TxRO and no write method (DESIGN.md
// §9.3).
type roTx txn

// ReadField implements stm.TxRO.
func (r *roTx) ReadField(h stm.Handle, field uint32) stm.Word {
	t := (*txn)(r)
	data, ok := t.openReadRO(t.e.object(h))
	if !ok {
		panic(stm.SignalRollback)
	}
	return data[field]
}

// Restart implements stm.TxRO.
func (r *roTx) Restart() { (*txn)(r).Restart() }

var _ stm.STM = (*Engine)(nil)
var _ stm.Thread = (*txn)(nil)
var _ stm.Tx = (*txn)(nil)
var _ stm.TxRO = (*roTx)(nil)
