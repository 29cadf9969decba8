// Package tl2 implements the TL2 algorithm of Dice, Shalev and Shavit
// ("Transactional Locking II", DISC 2006), the lazy baseline of the paper's
// evaluation (its "TL2 x86" port, GV4 clock variant).
//
// TL2 is word-based and lock-based like SwissTM, but makes the opposite
// conflict-detection choices:
//
//   - Lazy acquisition (commit-time locking): writes are buffered in a
//     private redo log; per-stripe versioned write-locks are taken only
//     during commit. Write/write conflicts therefore surface only at
//     commit time — the behaviour §5 shows wastes the work of long
//     transactions (Figure 6a).
//   - No timestamp extension: a read that observes a version newer than
//     the transaction's read version aborts immediately.
//   - Timid contention management with back-off: on any conflict the
//     attacker aborts itself.
//
// The GV4 optimization is preserved: a writer that increments the global
// clock from rv to rv+1 skips read-set validation, since no other
// transaction can have committed in between.
package tl2

import (
	"runtime"
	"slices"
	"sync/atomic"

	"swisstm/internal/mem"
	"swisstm/internal/stm"
	"swisstm/internal/stm/kernel"
)

// Config parameterizes a TL2 engine.
type Config = kernel.WordConfig

// commitSpin bounds how long the committer spins on a locked stripe
// before giving up and aborting (the original aborts immediately; a tiny
// bounded spin reduces convoying on oversubscribed hosts).
const commitSpin = 64

// Engine is a TL2 instance. Each lock-table entry is a versioned lock word
// (DESIGN.md §7.5), owned only by a committer. The global
// clock — bumped by every update commit — is padded onto its own cache
// line so clock traffic does not invalidate the read-mostly mapping
// state cached by every reader.
type Engine struct {
	cfg Config
	kernel.Heap
	locks []atomic.Uint64 // a mem.NewTable: valid while the engine is reachable

	_     mem.CacheLinePad
	clock mem.PaddedUint64
}

// New creates a TL2 engine.
func New(cfg Config) *Engine {
	h := kernel.NewHeap("tl2", &cfg)
	e := &Engine{cfg: cfg, Heap: h}
	e.locks = mem.NewTable[atomic.Uint64](e, h.Entries())
	return e
}

// Name implements stm.STM.
func (e *Engine) Name() string { return "TL2" }

// wsEntry is one buffered write (TL2 logs individual words).
type wsEntry struct {
	addr stm.Addr
	val  stm.Word
}

// txn is a TL2 transaction descriptor, one per thread.
type txn struct {
	e *Engine
	// locks, words and shift are e.locks, e.Words and e.Shift, the three a
	// read indexes, held here so a read reaches them in one hop; e keeps
	// the engine, and so the mapped table, reachable.
	locks   []atomic.Uint64
	words   []atomic.Uint64
	shift   uint
	rv      uint64        // read version (clock snapshot at start)
	readLog []kernel.Read // stripe and lock word of each read
	writes  []wsEntry
	bloom   uint64 // write-set membership filter for read-after-write
	own     uint64 // kernel.Owner(id): every lock word this thread installs, less its index
	// saved is the commit's lock set, stripes ascending, each with the word
	// its lock replaced: an owned word names its entry here.
	saved []kernel.Read
	// Thread's Unwind is TL2's as it stands: TL2 holds no locks outside
	// commit, so a foreign panic needs no cleanup before the caller
	// propagates it.
	kernel.Thread
}

// NewThread implements stm.STM.
func (e *Engine) NewThread(id int) stm.Thread {
	t := &txn{
		Thread:  kernel.NewThread("tl2", id, uint64(id)*0x51f15ee1+7, e.cfg.Obs),
		e:       e,
		locks:   e.locks,
		words:   e.Words,
		shift:   e.Shift,
		own:     kernel.Owner(id),
		readLog: make([]kernel.Read, 0, 1024),
		writes:  make([]wsEntry, 0, 256),
		saved:   make([]kernel.Read, 0, 256),
	}
	return t
}

// Begin implements stm.Thread.
func (t *txn) Begin(bool) stm.Tx {
	t.begin()
	return t
}

// BeginRO implements stm.Thread. TL2's declared read-only mode is the
// classic one from the TL2 paper: sample the clock and nothing else. No
// read log is kept at all — each read validates against rv on the spot,
// so the whole transaction is consistent at rv by construction and the
// commit needs no validation (DESIGN.md §9.3). The logs are truncated so
// a read-only abort never charges a previous transaction's entries to
// the ReadsLogged counter. Its view is the descriptor as a roTx.
func (t *txn) BeginRO(bool) stm.TxRO {
	t.rv = t.e.clock.Load()
	t.readLog = t.readLog[:0]
	return (*roTx)(t)
}

// AbortUser implements stm.Thread: the body returned an error. Writes
// were only buffered (lazy design), so dropping the transaction is pure
// bookkeeping.
func (t *txn) AbortUser() {
	t.abort()
	t.AbortedUser()
}

func (t *txn) begin() {
	t.rv = t.e.clock.Load()
	t.readLog = t.readLog[:0]
	t.writes = t.writes[:0]
	t.bloom = 0
}

// abort performs the rollback bookkeeping without deciding the delivery
// mechanism: callers either return a checked false up to the retry loop or
// panic with the pre-allocated signal when user code must be interrupted.
func (t *txn) abort() { t.Aborted(len(t.readLog)) }

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

func bloomBit(a stm.Addr) uint64 { return 1 << ((uint64(a) * 0x9e3779b97f4a7c15) >> 58) }

// ReadField implements stm.Tx: the TL2 read protocol, a write-set lookup
// for read-after-write, then a consistent sample (kernel.Sample) that must
// be unlocked and no newer than rv. A read that cannot proceed
// interrupts the user closure with the unwinding signal (readAbort); the
// fast path makes no call, and a log that must grow is logGrow's.
func (t *txn) ReadField(h stm.Handle, field uint32) stm.Word {
	a := stm.Addr(h) + field
	if t.bloom&bloomBit(a) != 0 {
		for i := len(t.writes) - 1; i >= 0; i-- {
			if t.writes[i].addr == a {
				return t.writes[i].val
			}
		}
	}
	// Local slice header + length mask: provably in-bounds (no check).
	locks := t.locks
	i := int(a>>t.shift) & (len(locks) - 1)
	w, val, ok := kernel.Sample(&locks[i], &t.words[a])
	if !ok || w>>1 > t.rv {
		t.readAbort(ok)
	}
	if len(t.readLog) < cap(t.readLog) {
		t.readLog = append(t.readLog, kernel.Read{Idx: uint32(i), Ver: w})
		return val
	}
	return t.logGrow(uint32(i), w, val)
}

// readAbort rolls back a read whose sample was not consistent (!ok: locked
// or changed under us — the timid policy aborts the reader) or newer than
// the snapshot: TL2 has no extension mechanism.
func (t *txn) readAbort(ok bool) {
	if !ok {
		t.Stat.AbortsLocked++
	} else {
		t.Stat.AbortsValidRead++
	}
	t.abort()
	panic(stm.SignalRollback)
}

// logGrow appends to a full read log and returns val. It stays out of
// line so that ReadField's fast path makes no call.
//
//go:noinline
func (t *txn) logGrow(idx uint32, v uint64, val stm.Word) stm.Word {
	t.readLog = append(t.readLog, kernel.Read{Idx: idx, Ver: v})
	return val
}

// WriteField implements stm.Tx: lazy buffering, no locks taken.
func (t *txn) WriteField(h stm.Handle, field uint32, v stm.Word) {
	a := stm.Addr(h) + field
	b := bloomBit(a)
	if t.bloom&b != 0 {
		for i := len(t.writes) - 1; i >= 0; i-- {
			if t.writes[i].addr == a {
				t.writes[i].val = v
				return
			}
		}
	}
	t.bloom |= b
	t.writes = append(t.writes, wsEntry{addr: a, val: v})
}

// CommitRO implements stm.Thread: it commits a declared read-only
// transaction on nothing but the clock sample taken at BeginRO: every read
// already proved itself ≤ rv and unlocked, so there is no read log to
// replay and no lock to take. This is the fast path the v2 API exists to
// expose — Stats.ValidationReads stays untouched, which the API-v2 suite
// asserts.
func (t *txn) CommitRO() bool {
	t.CommittedRO(0) // no read log, so the read-set size records 0
	return true
}

// Commit implements stm.Thread: the TL2 commit protocol. It reports false
// when the transaction aborted; every conflict TL2 detects here —
// lock-acquire failures and read-set validation — takes the checked return
// path and never unwinds.
func (t *txn) Commit() bool {
	if len(t.writes) == 0 { // read-only: already validated incrementally
		t.Committed(len(t.readLog), 0)
		return true
	}
	// Collect the distinct stripes of the write set, in a canonical order
	// so concurrent committers cannot deadlock. sortLockSet is
	// allocation-free, unlike the closure-based sort.Slice (which costs
	// two heap allocations per commit).
	s := t.saved[:0]
	for _, w := range t.writes {
		s = append(s, kernel.Read{Idx: t.e.Stripe(w.addr)})
	}
	sortLockSet(s)
	n := 0
	for i := range s {
		if i == 0 || s[i].Idx != s[n-1].Idx {
			s[n] = s[i]
			n++
		}
	}
	t.saved = s[:n]

	// Phase 1: acquire the versioned locks (CAS free→owned, the owned word
	// naming the stripe's entry in saved).
	for i := range t.saved {
		l := &t.e.locks[t.saved[i].Idx]
		ok := false
		for spin := 0; spin < commitSpin; spin++ {
			v := l.Load()
			if v&1 == 1 {
				if spin&0xf == 0xf {
					runtime.Gosched()
				}
				continue
			}
			if v>>1 > t.rv {
				break // stripe moved past our snapshot: abort
			}
			if l.CompareAndSwap(v, t.own|uint64(i)<<1) {
				t.saved[i].Ver = v
				ok = true
				break
			}
		}
		if !ok {
			kernel.Release(t.e.locks, t.saved[:i])
			t.Stat.LockAcquireFail++
			return t.commitAbort()
		}
	}
	// Phase 2: increment the global clock.
	wv := t.e.clock.Add(1)
	// Phase 3: validate the read set (GV4: skip when wv == rv+1). A
	// stripe passes if it still holds its logged word, or if this commit
	// owns it and the word its lock replaced is the logged word.
	if wv != t.rv+1 && !t.Validate(t.readLog, t.e.locks, t.own, t.saved) {
		kernel.Release(t.e.locks, t.saved)
		t.Stat.AbortsValidCommit++
		return t.commitAbort()
	}
	// Phase 4: write back and release with the new version.
	for _, w := range t.writes {
		t.e.Words[w.addr].Store(w.val)
	}
	newVer := wv << 1
	for _, s := range t.saved {
		t.e.locks[s.Idx].Store(newVer)
	}
	t.Committed(len(t.readLog), len(t.writes))
	return true
}

// sortLockSet sorts stripes ascending without allocating: insertion sort
// for the small write sets that dominate (rbtree updates touch a handful
// of stripes), pdqsort via slices.SortFunc beyond that.
func sortLockSet(s []kernel.Read) {
	if len(s) <= 32 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j].Idx > v.Idx {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	slices.SortFunc(s, func(a, b kernel.Read) int { return int(a.Idx) - int(b.Idx) })
}

// NewObject implements stm.Tx.
func (t *txn) NewObject(fields uint32) stm.Handle { return stm.Handle(t.e.Arena().Alloc(fields)) }

// NewObjects implements stm.Tx.
func (t *txn) NewObjects(dst []stm.Handle, f uint32, vals []stm.Word) { t.e.NewObjects(dst, f, vals) }

// roTx is the transaction view BeginRO returns, the descriptor under a
// second method set: its read runs the read-only protocol with no mode
// branch, and it implements stm.TxRO and no write method (DESIGN.md §9.3).
type roTx txn

// ReadField implements stm.TxRO: a consistent sample (kernel.Sample) that
// must be unlocked and no newer than rv — and nothing else. No
// write-set bloom probe (writes are impossible), no read logging (commit
// never validates; every read is already proven consistent at rv).
func (r *roTx) ReadField(h stm.Handle, field uint32) stm.Word {
	t := (*txn)(r)
	a := stm.Addr(h) + field
	locks := t.locks
	w, val, ok := kernel.Sample(&locks[int(a>>t.shift)&(len(locks)-1)], &t.words[a])
	if !ok || w>>1 > t.rv {
		t.readAbort(ok)
	}
	return val
}

// Restart implements stm.TxRO.
func (r *roTx) Restart() { (*txn)(r).Restart() }

var _ stm.STM = (*Engine)(nil)
var _ stm.Thread = (*txn)(nil)
var _ stm.Tx = (*txn)(nil)
var _ stm.TxRO = (*roTx)(nil)
