// Package kernel holds the thread-private half the STM engines share: the
// attempt bookkeeping every engine keeps (Thread), the redo log and the
// deduplicated read set of the two engines that lock at encounter time,
// SwissTM and TinySTM (RedoLog, ReadSet), and the configuration and stripe
// mapping of the three word engines (WordConfig, Heap).
//
// The kernel also owns the versioned lock word of the three word engines
// (DESIGN.md §7.5): its one owned-word encoding (Tag, Owner, Owns), its one
// read sample (Sample), and, for TL2 and TinySTM, which hold the same
// one-word lock, the one validation of a read log against it
// (Thread.Validate) and the one release of a lock set to the words its
// locks replaced (Release). Every acquire, publish and clock operation, and
// the order in which an engine calls these, stays in the engine's own
// package (DESIGN.md §7.6). The other shared stores made here are a
// committing owner's write-back of the arena words it wrote under its locks
// (Entry.WriteBack) and fresh objects' initial contents (Heap.NewObjects),
// which no other thread can reach yet; the engine decides when either
// happens.
//
// Engines embed these types by value and call their methods directly: no
// interface, no type parameter, no closure (DESIGN.md §9.2). Every method
// an engine's read, write and validation paths call is small enough to
// inline; Thread.Committed, one call per commit, is not.
//
// A descriptor is its engine's transaction handle: ReadField and WriteField
// run the protocol, and BeginRO returns the descriptor as a defined type
// (type roTx txn) whose ReadField is the read-only protocol. Commit ends a
// read-write attempt and CommitRO a read-only one, so no flag in the
// descriptor records an attempt's mode. A read's fast path calls nothing
// (ReadSet.Push never grows the log); what can call is the engine's
// out-of-line helpers.
package kernel

import (
	"math/bits"
	"sync/atomic"

	"swisstm/internal/mem"
	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// Thread is one engine thread's attempt bookkeeping: its id, the retry
// count of the logical transaction, its back-off generator, its telemetry
// shard and its counters. A descriptor embeds it after its hot fields and
// gets Stats, Backoff and Unwind from it; the engine's commit and abort
// paths record their outcomes through it.
type Thread struct {
	ID   int           // the engine thread id (stm.STM.NewThread)
	Succ int           // successive aborts of the current logical transaction
	Rng  *util.Rand    // back-off randomness, private to the thread
	Obs  *obs.TxnShard // per-thread telemetry shard (nil = obs off)
	Stat stm.Stats
	// A descriptor embeds Thread last, and an engine's descriptors are
	// allocated one after another: the pad keeps Stat, written at every
	// commit and abort, off the cache line where the next thread's
	// descriptor starts with its hot fields.
	_ mem.CacheLinePad
}

// NewThread returns the bookkeeping of thread id: its generator starts at
// seed, and its shard is o's for id when o is non-nil. It panics, naming
// engine, on an id outside [0, stm.MaxThreads).
func NewThread(engine string, id int, seed uint64, o *obs.TxnObs) Thread {
	if id < 0 || id >= stm.MaxThreads {
		panic(engine + ": thread id out of range")
	}
	t := Thread{ID: id, Rng: util.NewRand(seed)}
	if o != nil {
		t.Obs = o.Shard(id)
	}
	return t
}

// Stats implements stm.Thread.
func (t *Thread) Stats() stm.Stats { return t.Stat }

// Backoff implements stm.Thread: cm-on-rollback (Algorithm 2 line 11), a
// randomized linear back-off proportional to the successive-abort count.
func (t *Thread) Backoff() {
	t.Succ++
	util.BackoffLinear(t.Rng, t.Succ)
}

// Unwind implements stm.Thread for an engine that holds nothing a foreign
// panic must release: it reports whether r is the rollback signal, and
// counts that delivery. An engine that holds locks calls it first and
// releases them when it reports false.
func (t *Thread) Unwind(r any) bool {
	if _, rb := r.(stm.RollbackSignal); rb {
		t.Stat.AbortsUnwound++
		return true
	}
	return false
}

// Committed records a committed attempt that logged reads read-set entries
// and writes write-set entries; the logical transaction ends here.
func (t *Thread) Committed(reads, writes int) {
	t.Stat.Commits++
	t.Stat.ReadsLogged += uint64(reads)
	if t.Obs != nil {
		t.Obs.RecordCommit(uint64(t.Succ), uint64(reads), uint64(writes))
	}
	t.Succ = 0
}

// CommittedRO is Committed for an attempt begun by BeginRO, which its
// engine's CommitRO records.
func (t *Thread) CommittedRO(reads int) {
	t.Stat.ROCommits++
	t.Committed(reads, 0)
}

// Aborted records a rolled-back attempt that had logged reads read-set
// entries. The caller counts the cause and the delivery.
func (t *Thread) Aborted(reads int) {
	t.Stat.Aborts++
	t.Stat.ReadsLogged += uint64(reads)
}

// AbortedUser records, after Aborted, that the attempt rolled back because
// its body returned an error: a checked delivery, and the end of the
// logical transaction, as a commit would be.
func (t *Thread) AbortedUser() {
	t.Stat.AbortsUser++
	t.Stat.AbortsReturned++
	t.Succ = 0
}

// MaxTableBits bounds WordConfig.TableBits: an owned lock word carries a
// write-log index in 24 bits, under the owner's tag (DESIGN.md §7.5).
const MaxTableBits = 24

// The versioned lock word is version<<1 when free and (Tag(id) | idx)<<1 |
// 1 when owned, idx naming the owner's lock-set entry for the stripe,
// which holds the word the lock replaced (TinySTM's lock set runs beside
// its redo log, entry for entry).
// SwissTM's 32-bit w-lock is that word less its lock bit; its r-lock,
// version<<1 or 1 while its owner commits, is one to Sample. A write log
// holds at most one entry per lock-table entry, so MaxTableBits bounds idx;
// the _ below fails to compile should MaxThreads outgrow the tag's 8 bits.
const (
	IdxMask = uint32(1)<<MaxTableBits - 1
	_       = uint8(stm.MaxThreads + 1)
)

// Tag is thread id's owner bits in a 32-bit w-lock word.
func Tag(id int) uint32 { return uint32(id+1) << MaxTableBits }

// TagID is the thread id a held w-lock word names.
func TagID(w uint32) int { return int(w>>MaxTableBits) - 1 }

// TagOf is the owner bits of a w-lock word: its owner's Tag, 0 when free.
func TagOf(w uint32) uint32 { return w &^ IdxMask }

// OwnsTag is Owns for a 32-bit w-lock word and its owner's Tag.
func OwnsTag(w, tag uint32) (uint32, bool) { return w & IdxMask, TagOf(w) == tag }

// Owner is thread id's owned lock word less its index: an owner installs
// Owner(id) | idx<<1.
func Owner(id int) uint64 { return uint64(Tag(id))<<1 | 1 }

// Owns reports whether lock word w was installed by the owner whose word
// is own (Owner), and the write-log index it names.
func Owns(w, own uint64) (uint32, bool) {
	return uint32(w>>1) & IdxMask, w&^(uint64(IdxMask)<<1) == own
}

// Sample is the seqlock read of one arena word d under its stripe's lock
// word l: lock word, data word, lock word. It returns the first lock word,
// the data word, and whether the sample is consistent — the first lock word
// free and the second equal to it — so that val is the stripe's value at
// version w>>1. An owned first word is returned at once, d unloaded.
func Sample(l, d *atomic.Uint64) (w uint64, val stm.Word, ok bool) {
	if w = l.Load(); w&1 != 0 {
		return w, 0, false
	}
	val = d.Load()
	return w, val, l.Load() == w
}

// Validate is the one-load validation of TL2 and TinySTM (DESIGN.md §7.6),
// counted as one validation of len(log) reads: a read in log holds if its
// stripe's lock word in locks is still the logged word, or is owned by own
// (Owner) and the lock-set entry the owned word names, set[idx], replaced
// the logged word.
func (t *Thread) Validate(log []Read, locks []atomic.Uint64, own uint64, set []Read) bool {
	t.Stat.Validations++
	t.Stat.ValidationReads += uint64(len(log))
	for _, re := range log {
		if w := locks[re.Idx].Load(); w != re.Ver {
			if i, mine := Owns(w, own); !mine || set[i].Ver != re.Ver {
				return false
			}
		}
	}
	return true
}

// Release hands each stripe of lock set set back at the word its lock
// replaced, in set's order: TL2's commit after a failed acquire or
// validation, TinySTM's abort. No data word was written under those locks,
// so the replaced words still describe the stripes.
func Release(locks []atomic.Uint64, set []Read) {
	for _, s := range set {
		locks[s.Idx].Store(s.Ver)
	}
}

// WordConfig is the configuration the three word engines share; TL2's and
// TinySTM's Config is this type.
type WordConfig struct {
	// ArenaWords is the transactional heap capacity in 64-bit words
	// (0 selects 2^22).
	ArenaWords int
	// StripeWords is the number of consecutive words covered by one
	// lock-table entry. The paper's default granularity is 4 words (Table 2
	// shows it strikes the best balance), and 0 selects it. Must be a power
	// of two ≤ 64, the bits of a redo-log entry's write mask; pass 1 for
	// word granularity.
	StripeWords int
	// TableBits is log2 of the largest lock-table entry count, at most
	// MaxTableBits. 0 selects 20; the paper's C implementation uses 22, the
	// experiment harness 18 (harness.EngineSpec.New). The table gets no more
	// entries than the arena has stripes, rounded up to a power of two:
	// entries no arena address maps to would only cost memory (Heap).
	TableBits uint
	// Obs, when non-nil, collects per-transaction distribution telemetry
	// (retry count, read-/write-set sizes) into per-thread shards at commit
	// (DESIGN.md §11). Off (nil) by default; the instrumented path costs a
	// handful of plain increments and no allocations.
	Obs *obs.TxnObs
}

// Heap is a word engine's arena and the mapping of its words onto
// lock-table stripes, the paper's Figure 1: shift by the stripe size, mask
// by the table size. An engine embeds it with its read-mostly state and
// indexes its own lock tables by Stripe. The table has
// min(2^TableBits, P) entries, P the smallest power of two no smaller than
// the arena's stripe count. Every arena address has the stripe it would
// have in a table of 2^TableBits: when P is the smaller, a>>Shift is below
// P, so the bits the smaller mask drops are zero anyway.
type Heap struct {
	// arena keeps Words valid: a large arena's words are an OS mapping
	// that is unmapped once the *mem.Arena is collected, so Heap holds
	// the arena for as long as it holds the slice.
	arena *mem.Arena
	Words []atomic.Uint64 // the arena's backing array, cached for direct indexing
	Shift uint            // log2 of the words per stripe
	Width uint32          // words per stripe
	mask  uint32          // lock-table entries - 1
}

// NewHeap fills c's defaults, checks them — panicking with a message that
// names engine — and allocates the arena c describes.
func NewHeap(engine string, c *WordConfig) Heap {
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
		panic(engine + ": StripeWords must be a power of two ≤ 64")
	}
	if c.TableBits > MaxTableBits {
		panic(engine + ": TableBits must be ≤ 24")
	}
	a := mem.NewArena(c.ArenaWords)
	stripes := (a.Cap() + c.StripeWords - 1) / c.StripeWords
	tableBits := min(c.TableBits, uint(bits.Len(uint(stripes-1))))
	return Heap{
		arena: a,
		Words: a.Words(),
		Shift: uint(bits.TrailingZeros(uint(c.StripeWords))),
		Width: uint32(c.StripeWords),
		mask:  uint32(1)<<tableBits - 1,
	}
}

// Arena implements stm.STM.
func (h *Heap) Arena() *mem.Arena { return h.arena }

// Entries is the number of lock-table entries.
func (h *Heap) Entries() int { return int(h.mask) + 1 }

// Stripe returns the lock-table index of a.
func (h *Heap) Stripe(a stm.Addr) uint32 { return (a >> h.Shift) & h.mask }

// StripeBase returns the first word of a's stripe.
func (h *Heap) StripeBase(a stm.Addr) stm.Addr { return a &^ (h.Width - 1) }

// NewObjects implements stm.Tx for the word engines: one arena allocation
// for all the objects, then one store per non-zero value (the arena is
// never reused, so its words start zero). A zero-field object takes a word.
func (h *Heap) NewObjects(dst []stm.Handle, fields uint32, vals []stm.Word) {
	words := stm.ObjectWords(len(dst), fields, vals)
	base := h.arena.Alloc(max(words, uint32(len(dst))))
	for i := range dst {
		dst[i] = stm.Handle(base + stm.Addr(i)*max(fields, 1))
	}
	for j, v := range vals {
		if v != 0 {
			h.Words[base+stm.Addr(j)].Store(v)
		}
	}
}

// RedoLog is the write log of an engine that locks a stripe at its first
// write and writes back at commit (SwissTM, TinySTM): one Entry per stripe
// the attempt has locked, holding the new values of the words it wrote
// there. The log is the prefix of an entry pool reused across attempts, so
// a warmed thread allocates nothing. Next readies the entry after the log
// and Push adds it only once its lock is held, so a lost lock CAS has
// nothing to undo. Entries are owner-private: other threads read only the
// lock word that names an entry's position (DESIGN.md §7.5).
type RedoLog struct {
	pool  []Entry // pool[:n] is the log
	n     int
	width uint32 // words per stripe
}

// NewRedoLog returns an empty log over stripes of width words.
func NewRedoLog(width uint32) RedoLog { return RedoLog{width: width} }

// Len is the number of entries in the log.
func (l *RedoLog) Len() int { return l.n }

// Entries returns the log.
func (l *RedoLog) Entries() []Entry { return l.pool[:l.n] }

// At returns entry i of the log, the position a lock word names.
func (l *RedoLog) At(i uint32) *Entry { return &l.pool[i] }

// Next readies the entry the next locked stripe will use: lock-table index
// idx, first word base. The pointer is good until the next call: growing
// the pool moves it.
func (l *RedoLog) Next(idx uint32, base stm.Addr) *Entry {
	if l.n == len(l.pool) {
		l.pool = append(l.pool, Entry{vals: make([]stm.Word, l.width)})
	}
	we := &l.pool[l.n]
	we.Idx = idx
	we.base = base
	we.mask = 0
	we.overflow = we.overflow[:0]
	return we
}

// Push adds the entry Next readied to the log; call it once the stripe's
// lock is held.
func (l *RedoLog) Push() { l.n++ }

// Reset empties the log.
func (l *RedoLog) Reset() { l.n = 0 }

// Entry is a redo-log entry: one attempt's buffered writes to one
// lock-table stripe.
type Entry struct {
	Idx  uint32   // lock-table index of the stripe
	base stm.Addr // first word of the primary stripe
	mask uint64   // bit i set ⇒ vals[i] holds the new value of base+i
	vals []stm.Word
	// Saved is SwissTM's r-lock as its commit found it before replacing
	// it by rLocked, to restore if the commit fails validation.
	Saved uint64
	// overflow holds writes to aliased stripes: distinct memory regions
	// that map to the same lock-table entry (the table is a hash of the
	// address space, Figure 1). Aliasing is rare with paper-sized tables
	// but must be correct at any table size.
	overflow []wsPair
}

// wsPair is one buffered aliased write.
type wsPair struct {
	addr stm.Addr
	val  stm.Word
}

// Set buffers the write of v to a.
func (we *Entry) Set(a stm.Addr, v stm.Word) {
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

// Get returns the buffered value for a, or ok=false when the entry holds
// no write for it (the owner may then read memory: it holds the lock).
func (we *Entry) Get(a stm.Addr) (stm.Word, bool) {
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

// WriteBack stores the entry's buffered words into heap, primary stripe
// first, then the aliased writes. The caller holds the stripe's lock and
// publishes the stripe's new version after.
func (we *Entry) WriteBack(heap []atomic.Uint64) {
	for m := we.mask; m != 0; m &= m - 1 {
		i := uint(bits.TrailingZeros64(m))
		heap[we.base+stm.Addr(i)].Store(we.vals[i])
	}
	for _, p := range we.overflow {
		heap[p.addr].Store(p.val)
	}
}

// ReadSet is the deduplicated read set of SwissTM and TinySTM (DESIGN.md
// §7.1): the read log, one entry per stripe, and the bitmap Seen, whose bit
// s is set exactly while the log holds an entry for stripe s.
type ReadSet struct {
	Log  []Read
	Seen util.StripeSet
}

// Read is a read-log entry: a stripe and its free lock word as sampled,
// version<<1 (SwissTM's r-lock, TinySTM's and TL2's lock word). TL2's and
// TinySTM's lock sets hold the stripes they own in the same form: the word
// each lock replaced.
type Read struct {
	Idx uint32
	Ver uint64
}

// NewReadSet returns an empty read set over a lock table of entries
// stripes, valid while owner, the descriptor, is reachable. Seen bounds
// the log at entries, so it is reserved at that bound (mem.NewLog): a
// log of 2 MiB or more is mapped and never reallocates, a smaller one
// starts at 1 024 entries and grows by append.
func NewReadSet[O any](owner *O, entries int) ReadSet {
	return ReadSet{Log: mem.NewLog[Read](owner, entries, 1024), Seen: util.NewStripeSet(entries)}
}

// TestAndSet sets stripe idx's bit in Seen and reports whether it was set.
// The read paths call it rather than Seen's own method: a method of a
// package the caller does not import is not inlined there (go1.24), and
// TinySTM imports no util.
func (s *ReadSet) TestAndSet(idx uint32) bool { return s.Seen.TestAndSet(idx) }

// Push appends a read of stripe idx at ver to the log if the log has room,
// and reports whether it had. It never grows the log, so a read's fast
// path makes no call; a full log is the caller's out-of-line append.
func (s *ReadSet) Push(idx uint32, ver uint64) bool {
	if len(s.Log) >= cap(s.Log) {
		return false
	}
	s.Log = append(s.Log, Read{Idx: idx, Ver: ver}) // in place: the compiler drops the grow branch
	return true
}

// Clear truncates the log and clears its stripes' bits in Seen. Engines
// call it at the start of an attempt and nowhere else, so however the
// previous attempt ended — commit, abort, kill, Restart, a body error, a
// foreign panic — its log is still there to say which bits to clear. A log
// longer than the bitmap has words is cheaper to undo by wiping the bitmap.
func (s *ReadSet) Clear() {
	if len(s.Log) == 0 {
		return
	}
	if len(s.Log) > len(s.Seen) {
		clear(s.Seen)
	} else {
		for i := range s.Log {
			s.Seen.Remove(s.Log[i].Idx)
		}
	}
	s.Log = s.Log[:0]
}
