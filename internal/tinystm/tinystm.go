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
	"math/bits"
	"runtime"
	"sync/atomic"

	"swisstm/internal/mem"
	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// Config parameterizes a TinySTM engine.
type Config struct {
	ArenaWords int
	Arena      *mem.Arena
	// StripeWords is the lock granularity in words; 0 selects the
	// 4-word default shared by all word-based engines (see the field's
	// documentation in package swisstm). Must be a power of two ≤ 64.
	StripeWords int
	TableBits   uint
	// Obs, when non-nil, collects per-transaction telemetry at commit
	// (see the field in package swisstm; DESIGN.md §11).
	Obs *obs.TxnObs
}

func (c *Config) fill() {
	if c.ArenaWords == 0 {
		c.ArenaWords = 1 << 22
	}
	if c.TableBits == 0 {
		c.TableBits = 20
	}
	if c.StripeWords == 0 {
		c.StripeWords = 4
	}
	if c.StripeWords > 64 || c.StripeWords&(c.StripeWords-1) != 0 {
		panic("tinystm: StripeWords must be a power of two ≤ 64")
	}
	if c.TableBits > wTagShift {
		panic("tinystm: TableBits must be ≤ 24")
	}
}

// A stripe's owner word is 0 when free, otherwise ownerTag<<24 | write-log
// index, where ownerTag is the owner's thread id + 1 — the encoding of
// SwissTM's w-lock word, with the same two bounds (DESIGN.md §7).
const (
	wTagShift = 24
	wIdxMask  = uint32(1)<<wTagShift - 1
	_         = uint8(stm.MaxThreads + 1)
)

// wEntry is a redo-log entry for one stripe (write-back design). Entries
// are owner-private: other threads read only the owner word.
type wEntry struct {
	idx  uint32
	base stm.Addr
	mask uint64
	vals []stm.Word
	// overflow buffers writes to aliased stripes (distinct memory regions
	// hashing to the same lock-table entry); see the same field in
	// package swisstm.
	overflow []wsPair
}

// wsPair is one buffered aliased write.
type wsPair struct {
	addr stm.Addr
	val  stm.Word
}

type rEntry struct {
	idx uint32
	ver uint64
}

// Engine is a TinySTM instance. Each stripe has a version counter and an
// owner word; a non-zero owner is the encounter-time write lock. The
// global clock — the hottest write-shared word — is padded onto its own
// cache line so committers bumping it do not invalidate the line holding
// the read-mostly mapping state in every other core's cache.
type Engine struct {
	cfg    Config
	arena  *mem.Arena
	heap   []atomic.Uint64 // arena backing array, cached for direct indexing
	vers   []atomic.Uint64
	owners []atomic.Uint32
	shift  uint
	mask   uint32
	stripe uint32

	_     mem.CacheLinePad
	clock mem.PaddedUint64
}

// New creates a TinySTM engine.
func New(cfg Config) *Engine {
	cfg.fill()
	a := cfg.Arena
	if a == nil {
		a = mem.NewArena(cfg.ArenaWords)
	}
	n := 1 << cfg.TableBits
	return &Engine{
		cfg:    cfg,
		arena:  a,
		heap:   a.Words(),
		vers:   make([]atomic.Uint64, n),
		owners: make([]atomic.Uint32, n),
		shift:  uint(bits.TrailingZeros(uint(cfg.StripeWords))),
		mask:   uint32(n - 1),
		stripe: uint32(cfg.StripeWords),
	}
}

// Name implements stm.STM.
func (e *Engine) Name() string { return "TinySTM" }

// Arena implements stm.STM.
func (e *Engine) Arena() *mem.Arena { return e.arena }

func (e *Engine) stripeIdx(a stm.Addr) uint32    { return (a >> e.shift) & e.mask }
func (e *Engine) stripeBase(a stm.Addr) stm.Addr { return a &^ (e.stripe - 1) }

// txn is a TinySTM transaction descriptor, one per thread.
type txn struct {
	e       *Engine
	id      int
	tag     uint32 // (id+1)<<24: the owner bits of every owner word this thread installs
	ro      bool   // current transaction declared read-only (BeginRO)
	validTS uint64
	readLog []rEntry
	pool    []wEntry // write-entry pool; pool[:nw] is the current write log
	nw      int
	seen    util.StripeSet // bit idx set ⇔ readLog holds an entry for stripe idx (DESIGN.md §7.1)
	rng     *util.Rand
	succ    int
	roV     roTx          // pre-allocated read-only view returned by BeginRO
	obsh    *obs.TxnShard // per-thread telemetry shard (nil = obs off)
	stats   stm.Stats
}

// NewThread implements stm.STM. The id is the thread's identity in the
// lock table (owner words carry it); see stm.STM.NewThread.
func (e *Engine) NewThread(id int) stm.Thread {
	if id < 0 || id >= stm.MaxThreads {
		panic("tinystm: thread id out of range")
	}
	t := &txn{
		e:       e,
		id:      id,
		tag:     uint32(id+1) << wTagShift,
		readLog: make([]rEntry, 0, 1024),
		rng:     util.NewRand(uint64(id)*0xabcd1234 + 3),
	}
	t.roV.t = t
	t.seen = util.NewStripeSet(len(e.vers))
	if e.cfg.Obs != nil {
		t.obsh = e.cfg.Obs.Shard(id)
	}
	return t
}

// Stats implements stm.Thread.
func (t *txn) Stats() stm.Stats { return t.stats }

// Begin implements stm.Thread.
func (t *txn) Begin(bool) stm.Tx {
	t.ro = false
	t.begin()
	return t
}

// BeginRO implements stm.Thread. A declared read-only transaction skips
// the write-set init entirely: the write log is invariantly empty between
// transactions (commit and abort both truncate it; DESIGN.md §9.3).
func (t *txn) BeginRO(bool) stm.TxRO {
	t.ro = true
	t.validTS = t.e.clock.Load()
	if len(t.readLog) != 0 {
		t.clearReadSet()
	}
	return &t.roV
}

// Commit implements stm.Thread.
func (t *txn) Commit() bool {
	var ok bool
	if t.ro {
		ok = t.commitRO()
	} else {
		ok = t.commit()
	}
	if ok {
		t.succ = 0
	}
	return ok
}

// Unwind implements stm.Thread: triage a panic recovered mid-body; a
// foreign panic releases the encounter-time locks before propagating.
func (t *txn) Unwind(r any) bool {
	if _, rb := r.(stm.RollbackSignal); rb {
		t.stats.AbortsUnwound++
		return true
	}
	t.releaseOwned()
	return false
}

// AbortUser implements stm.Thread: roll back because the body returned an
// error — encounter-time locks released, redo log dropped, no retry.
func (t *txn) AbortUser() {
	t.abort()
	t.stats.AbortsUser++
	t.stats.AbortsReturned++
	t.succ = 0 // the logical transaction ends here, like a commit
}

// Backoff implements stm.Thread.
func (t *txn) Backoff() {
	t.succ++
	util.BackoffLinear(t.rng, t.succ)
}

func (t *txn) begin() {
	t.validTS = t.e.clock.Load()
	if len(t.readLog) != 0 {
		t.clearReadSet()
	}
	t.nw = 0
}

// clearReadSet truncates the read log and clears its stripes' bits in
// seen. It is the only place the log is truncated, and it runs at the
// start of an attempt, so however the previous attempt ended its log is
// still there to say which bits to clear; a log longer than the bitmap
// has words is cheaper to undo by wiping the bitmap (see package swisstm).
func (t *txn) clearReadSet() {
	if len(t.readLog) > len(t.seen) {
		clear(t.seen)
	} else {
		for i := range t.readLog {
			t.seen.Remove(t.readLog[i].idx)
		}
	}
	t.readLog = t.readLog[:0]
}

// abort performs the rollback bookkeeping without deciding the delivery
// mechanism (checked return vs unwinding panic); see package swisstm.
func (t *txn) abort() {
	t.releaseOwned()
	t.stats.Aborts++
	t.stats.ReadsLogged += uint64(len(t.readLog))
}

// commitAbort delivers a commit-time abort as a checked return.
func (t *txn) commitAbort() bool {
	t.abort()
	t.stats.AbortsReturned++
	return false
}

// Restart implements stm.Tx: a user-requested retry always unwinds.
func (t *txn) Restart() {
	t.abort()
	t.stats.AbortsExplicit++
	panic(stm.SignalRestart)
}

func (t *txn) releaseOwned() {
	for i := range t.pool[:t.nw] {
		t.e.owners[t.pool[i].idx].Store(0)
	}
	t.nw = 0
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
	i := int(a>>t.e.shift) & (len(vers) - 1)
	idx := uint32(i)
	own := &t.e.owners[i]
	ver := &vers[i]
	for {
		if w := own.Load(); w != 0 {
			if w&^wIdxMask == t.tag {
				if v, ok := t.pool[w&wIdxMask].get(a); ok {
					return v, true
				}
				return t.e.heap[a].Load(), true
			}
			// Encounter-time locking: a reader hitting a foreign lock
			// aborts at once (timid CM).
			t.stats.AbortsLocked++
			t.abort()
			return 0, false
		}
		v1 := ver.Load()
		val := t.e.heap[a].Load()
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
		if t.seen.TestAndSet(idx) {
			if v1 <= t.validTS {
				t.stats.ReadsDeduped++
				return val, true
			}
		} else {
			t.readLog = append(t.readLog, rEntry{idx: idx, ver: v1})
			if v1 <= t.validTS || t.extend() {
				return val, true
			}
		}
		t.stats.AbortsValid++
		t.stats.AbortsValidRead++
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
	i := int(a>>t.e.shift) & (len(vers) - 1)
	idx := uint32(i)
	own := &t.e.owners[i]
	ver := &vers[i]
	for {
		if own.Load() != 0 {
			t.stats.AbortsLocked++
			t.abort()
			return 0, false
		}
		v1 := ver.Load()
		val := t.e.heap[a].Load()
		v2 := ver.Load()
		if v1 != v2 || own.Load() != 0 {
			runtime.Gosched()
			continue
		}
		// Same read-set dedup discipline as load (DESIGN.md §7.1).
		if t.seen.TestAndSet(idx) {
			if v1 <= t.validTS {
				t.stats.ReadsDeduped++
				return val, true
			}
		} else {
			t.readLog = append(t.readLog, rEntry{idx: idx, ver: v1})
			if v1 <= t.validTS || t.extend() {
				return val, true
			}
		}
		t.stats.AbortsValid++
		t.stats.AbortsValidRead++
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
	idx := t.e.stripeIdx(a)
	own := &t.e.owners[idx]
	for {
		w := own.Load()
		if w&^wIdxMask == t.tag {
			t.pool[w&wIdxMask].set(a, v)
			return true
		}
		if w != 0 {
			// Write/write conflict: timid — abort self.
			t.stats.AbortsWW++
			t.abort()
			return false
		}
		t.newEntry(idx, t.e.stripeBase(a)).set(a, v)
		if own.CompareAndSwap(0, t.tag|uint32(t.nw)) {
			t.nw++ // the entry joins the write log only once the lock is ours
			break
		}
	}
	if ver := t.e.vers[idx].Load(); ver > t.validTS && !t.extend() {
		t.stats.AbortsValid++
		t.stats.AbortsValidRead++
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
	t.stats.Commits++
	t.stats.ROCommits++
	t.stats.ReadsLogged += uint64(len(t.readLog))
	if t.obsh != nil {
		t.obsh.RecordCommit(uint64(t.succ), uint64(len(t.readLog)), 0)
	}
	return true
}

// commit writes back the redo log under the encounter-time locks. It
// reports false when the transaction aborted; commit-time validation
// failures take the checked return path and never unwind.
func (t *txn) commit() bool {
	if t.nw == 0 {
		t.stats.Commits++
		t.stats.ReadsLogged += uint64(len(t.readLog))
		if t.obsh != nil {
			t.obsh.RecordCommit(uint64(t.succ), uint64(len(t.readLog)), 0)
		}
		return true
	}
	ts := t.e.clock.Add(1)
	if ts > t.validTS+1 && !t.validate() {
		t.stats.AbortsValid++
		t.stats.AbortsValidCommit++
		return t.commitAbort()
	}
	wlog := t.pool[:t.nw]
	for i := range wlog {
		we := &wlog[i]
		m := we.mask
		for m != 0 {
			i := uint(bits.TrailingZeros64(m))
			t.e.heap[we.base+stm.Addr(i)].Store(we.vals[i])
			m &= m - 1
		}
		for _, p := range we.overflow {
			t.e.heap[p.addr].Store(p.val)
		}
		t.e.vers[we.idx].Store(ts)
		t.e.owners[we.idx].Store(0)
	}
	t.nw = 0 // ownership transferred; nothing to release
	t.stats.Commits++
	t.stats.ReadsLogged += uint64(len(t.readLog))
	if t.obsh != nil {
		t.obsh.RecordCommit(uint64(t.succ), uint64(len(t.readLog)), uint64(len(wlog)))
	}
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
	t.stats.Validations++
	t.stats.ValidationReads += uint64(len(t.readLog))
	for i := range t.readLog {
		re := &t.readLog[i]
		if w := t.e.owners[re.idx].Load(); w != 0 && w&^wIdxMask != t.tag {
			return false
		}
		if t.e.vers[re.idx].Load() != re.ver {
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

// newEntry readies pool[nw], the entry the next acquired stripe will use.
// The pointer is good until the next call: growing the pool moves it.
func (t *txn) newEntry(idx uint32, base stm.Addr) *wEntry {
	if t.nw == len(t.pool) {
		t.pool = append(t.pool, wEntry{vals: make([]stm.Word, t.e.stripe)})
	}
	we := &t.pool[t.nw]
	we.idx = idx
	we.base = base
	we.mask = 0
	we.overflow = we.overflow[:0]
	return we
}

func (we *wEntry) set(a stm.Addr, v stm.Word) {
	if off := a - we.base; off < stm.Addr(len(we.vals)) {
		we.mask |= 1 << off
		we.vals[off] = v
		return
	}
	for i := range we.overflow {
		if we.overflow[i].addr == a {
			we.overflow[i].val = v
			return
		}
	}
	we.overflow = append(we.overflow, wsPair{addr: a, val: v})
}

// get returns the buffered value for a, or ok=false when this entry holds
// no write for it.
func (we *wEntry) get(a stm.Addr) (stm.Word, bool) {
	if off := a - we.base; off < stm.Addr(len(we.vals)) {
		if we.mask&(1<<off) != 0 {
			return we.vals[off], true
		}
		return 0, false
	}
	for i := range we.overflow {
		if we.overflow[i].addr == a {
			return we.overflow[i].val, true
		}
	}
	return 0, false
}

// AllocWords implements stm.Tx.
func (t *txn) AllocWords(n uint32) stm.Addr { return t.e.arena.Alloc(n) }

// ReadField implements stm.Tx (object-over-words wrapper).
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
	return stm.Handle(t.e.arena.Alloc(fields))
}

// roTx is the transaction view BeginRO returns; see the swisstm
// counterpart for the rationale. It implements stm.TxRO and nothing more.
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
