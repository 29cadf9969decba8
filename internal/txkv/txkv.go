// Package txkv is a sharded transactional key-value store — the
// server-traffic workload family of the evaluation. The paper argues
// SwissTM targets workloads "larger and more complex" than
// microbenchmarks; an in-memory KV store with mixed point operations,
// multi-key transactions and iteration-based aggregate reads is exactly
// the mixed short/long-transaction regime its two-phase contention
// manager is built for.
//
// The store is written entirely against the engine-agnostic object API
// (DESIGN.md §3.1) in its v2 typed form — read paths take stm.TxRO, so
// they compose into declared read-only transactions (stm.AtomicRO) and
// run on every engine's read-only fast path. Layout (DESIGN.md §6):
//
//   - The key space is hashed (splitmix64 finalizer) onto Shards open-
//     addressed slot tables. The shard/slot directory is built once at
//     setup and immutable afterwards, so it lives outside the STM, in
//     one mem.NewTable, and costs no read-set entries.
//   - Each slot is one 2-field object {key, value}. A Get probes the
//     linear-probe sequence reading one key field per hop. ConfigForKeys
//     provisions four slots per expected key (a load factor of at most
//     25 %), so a hit costs ~1-2 key probes plus the value read.
//   - Updates write only the slot's value field; inserts claim an
//     empty or tombstoned slot; deletes write the tombstone key. Slot
//     objects are never unlinked, so the directory never changes shape
//     and two transactions conflict only when their probe paths cross
//     the same slot objects (or lock stripes, on word-based engines).
package txkv

import (
	"swisstm/internal/mem"
	"swisstm/internal/stm"
)

// Slot object field indices.
const (
	sKey uint32 = iota
	sVal
	slotFields
)

const (
	// emptyKey marks a never-used slot: a probe may stop here.
	emptyKey stm.Word = 0
	// tombKey marks a deleted slot: a probe must continue past it, and
	// an insert may reuse it. Keys are application data, so the two
	// sentinels are reserved values (documented on Put).
	tombKey stm.Word = ^stm.Word(0)
)

// Config sizes the store. Both dimensions must be powers of two.
type Config struct {
	// Shards is the number of shards (aggregate/scan unit). Default 16.
	Shards int
	// Slots is the number of open-addressed slots per shard. Default 64.
	// The shard is full when every slot is claimed; Put panics on
	// overflow, so provision with ConfigForKeys (four slots per key) for
	// the expected population.
	Slots int
}

func (c *Config) fill() {
	if c.Shards == 0 {
		c.Shards = 16
	}
	if c.Slots == 0 {
		c.Slots = 64
	}
	if c.Shards&(c.Shards-1) != 0 || c.Slots&(c.Slots-1) != 0 {
		panic("txkv: Shards and Slots must be powers of two")
	}
}

// ConfigForKeys sizes a store for an expected population of keys at no
// more than quarter-full shards on average across 16 shards (and at
// least 16 slots per shard), which keeps linear-probe sequences short
// (~1 key read per Get) and makes per-shard overflow — keys hash to
// shards, so an unlucky shard can receive more than its share —
// vanishingly unlikely. Overflow is still possible in principle for an
// adversarial key population; Put then panics rather than degrading
// silently, so size generously for untrusted key sets.
func ConfigForKeys(keys int) Config {
	c := Config{Shards: 16, Slots: 16}
	for c.Shards*c.Slots < 4*keys {
		c.Slots <<= 1
	}
	return c
}

// Store is a transactional hash map from uint64 keys to uint64 values.
// All operations run inside the caller's transaction, so any sequence
// of them composes into one atomic multi-key transaction; the read-only
// operations accept stm.TxRO and therefore also compose into declared
// read-only transactions. The Store struct itself is immutable after
// New and safe to share across worker threads.
//
// Keys must avoid the two reserved sentinel values 0 and ^uint64(0).
type Store struct {
	shards int
	slots  int
	// table[shard][slot] is the handle of that slot's 2-field object.
	// Written once during New, read-only afterwards. Rows are capped views
	// into one mem.NewTable, valid only while the Store is reachable.
	table [][]stm.Handle
}

// New builds an empty store using th for the allocation transactions.
func New(th stm.Thread, cfg Config) *Store {
	cfg.fill()
	s := &Store{shards: cfg.Shards, slots: cfg.Slots}
	s.build(th, nil, 0)
	return s
}

// build allocates the slot objects, one allocation transaction per shard,
// so that no transaction is larger than a shard. With byShard non-nil it
// also seeds shard si's keys byShard[si], each with balance, into the
// slots Put of them in that order would give them: the first free slot
// of each key's probe sequence. The seeded fields are the initial
// contents of fresh objects, which no other thread can reach yet, so no
// slot is probed or written transactionally (stm.Tx.NewObjects).
func (s *Store) build(th stm.Thread, byShard [][]uint32, balance stm.Word) {
	flat := mem.NewTable[stm.Handle](s, s.shards*s.slots)
	s.table = make([][]stm.Handle, s.shards)
	var vals []stm.Word // one shard's slot fields, slotFields words per slot
	if byShard != nil {
		vals = make([]stm.Word, s.slots*int(slotFields))
	}
	for si := range s.table {
		lo, hi := si*s.slots, (si+1)*s.slots
		row := flat[lo:hi:hi]
		if byShard != nil {
			clear(vals)
			for _, k := range byShard[si] {
				_, i := s.home(stm.Word(k))
				for vals[i*int(slotFields)+int(sKey)] != emptyKey {
					i = (i + 1) & (s.slots - 1)
				}
				slot := vals[i*int(slotFields):][:slotFields]
				slot[sKey], slot[sVal] = stm.Word(k), balance
			}
		}
		stm.AtomicVoid(th, func(tx stm.Tx) { tx.NewObjects(row, slotFields, vals) })
		s.table[si] = row
	}
}

// Shards returns the shard count (the unit SumShard iterates).
func (s *Store) Shards() int { return s.shards }

// ShardOf returns the shard index key hashes to. It exposes the
// internal placement read-only so callers can attribute per-shard
// telemetry (the server's conflict counters, DESIGN.md §11) and,
// later, route by affinity — without being able to perturb it.
func (s *Store) ShardOf(key stm.Word) int { return int(mix(key)) & (s.shards - 1) }

// mix is the splitmix64 finalizer: avalanches key bits so that hot
// zipfian ranks and sequential key populations scatter across shards
// and probe start points.
func mix(k stm.Word) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// home returns key's shard and probe start slot.
func (s *Store) home(key stm.Word) (shard, start int) {
	h := mix(key)
	return int(h) & (s.shards - 1), int(h>>32) & (s.slots - 1)
}

// row returns key's shard row and probe start slot.
func (s *Store) row(key stm.Word) ([]stm.Handle, int) {
	shard, start := s.home(key)
	return s.table[shard], start
}

// find walks key's linear-probe sequence, returning the slot holding
// key (0 when absent). Each hop costs exactly one transactional read of
// the slot's key field — the dependent-read chain the bucket-chain
// layout paid twice over.
func (s *Store) find(tx stm.TxRO, row []stm.Handle, start int, key stm.Word) stm.Handle {
	if key == emptyKey || key == tombKey {
		return 0 // sentinel keys are never stored
	}
	mask := s.slots - 1
	for i := 0; i < s.slots; i++ {
		slot := row[(start+i)&mask]
		switch tx.ReadField(slot, sKey) {
		case key:
			return slot
		case emptyKey:
			return 0 // never-used slot terminates the probe sequence
		}
	}
	return 0 // every slot claimed or tombstoned
}

// Get returns the value stored under key.
func (s *Store) Get(tx stm.TxRO, key stm.Word) (stm.Word, bool) {
	row, start := s.row(key)
	slot := s.find(tx, row, start, key)
	if slot == 0 {
		return 0, false
	}
	return tx.ReadField(slot, sVal), true
}

// Put sets key → val, returning true when the key was newly inserted
// (false when an existing value was overwritten). It panics when key is
// a reserved sentinel (0 or ^uint64(0)) or the shard is full — both are
// configuration errors, not runtime conditions (size with
// ConfigForKeys).
func (s *Store) Put(tx stm.Tx, key, val stm.Word) bool {
	if key == emptyKey || key == tombKey {
		panic("txkv: key collides with a reserved sentinel value")
	}
	row, start := s.row(key)
	mask := s.slots - 1
	free := stm.Handle(0) // first reusable slot seen (tombstone or empty)
	for i := 0; i < s.slots; i++ {
		slot := row[(start+i)&mask]
		switch tx.ReadField(slot, sKey) {
		case key:
			// Read the value before overwriting it. The read makes a
			// blind overwrite a read-modify-write, so two conflicting
			// Puts cannot both validate: the engines' commit order for
			// them is then observable at the point the body ends, which
			// is what lets the WAL's ticket sequencer log mutations in
			// commit order (DESIGN.md §12).
			tx.ReadField(slot, sVal)
			tx.WriteField(slot, sVal, val)
			return false
		case tombKey:
			if free == 0 {
				free = slot
			}
		case emptyKey:
			if free == 0 {
				free = slot
			}
			i = s.slots // probe sequence ends at a never-used slot
		}
	}
	if free == 0 {
		panic("txkv: shard full (size the store with ConfigForKeys)")
	}
	tx.WriteField(free, sKey, key)
	tx.WriteField(free, sVal, val)
	return true
}

// Delete removes key, returning whether it was present. The slot is
// tombstoned: probe sequences continue past it, inserts may reuse it.
func (s *Store) Delete(tx stm.Tx, key stm.Word) bool {
	row, start := s.row(key)
	slot := s.find(tx, row, start, key)
	if slot == 0 {
		return false
	}
	tx.WriteField(slot, sKey, tombKey)
	return true
}

// CAS replaces key's value with newv only when it currently equals
// oldv. It returns false — writing nothing — when the key is absent or
// holds a different value.
func (s *Store) CAS(tx stm.Tx, key, oldv, newv stm.Word) bool {
	row, start := s.row(key)
	slot := s.find(tx, row, start, key)
	if slot == 0 || tx.ReadField(slot, sVal) != oldv {
		return false
	}
	tx.WriteField(slot, sVal, newv)
	return true
}

// transferStackKeys is the widest transfer whose scratch fits Transfer's
// stack frame; the workload mixes move 2–4 keys.
const transferStackKeys = 8

// Transfer atomically moves amount from keys[0] to each of keys[1:]
// (debiting amount × (len(keys)−1) from the source) — the multi-key
// transaction class of the workload mixes. It returns false, writing
// nothing, when fewer than two keys are given, keys repeat, any key is
// absent, or the source balance is insufficient. The sum over all keys
// is invariant either way, which the cross-engine balance checks
// exploit.
func (s *Store) Transfer(tx stm.Tx, keys []stm.Word, amount stm.Word) bool {
	if len(keys) < 2 {
		return false
	}
	for i, k := range keys {
		for _, prior := range keys[:i] {
			if prior == k {
				return false
			}
		}
	}
	debit := amount * stm.Word(len(keys)-1)
	// Locate every slot once; the write pass reuses the handles, so a
	// transfer over k keys probes each shard a single time. The scratch
	// starts in two arrays on the stack, so a transfer of up to
	// transferStackKeys keys allocates nothing; append moves a wider one
	// to the heap.
	var slotBuf [transferStackKeys]stm.Handle
	var valBuf [transferStackKeys]stm.Word
	slots, vals := slotBuf[:0], valBuf[:0]
	for _, k := range keys {
		row, start := s.row(k)
		slot := s.find(tx, row, start, k)
		if slot == 0 {
			return false
		}
		slots = append(slots, slot)
		vals = append(vals, tx.ReadField(slot, sVal))
	}
	if vals[0] < debit {
		return false
	}
	tx.WriteField(slots[0], sVal, vals[0]-debit)
	for i := 1; i < len(slots); i++ {
		tx.WriteField(slots[i], sVal, vals[i]+amount)
	}
	return true
}

// ForEachShard calls fn for every (key, value) pair in one shard,
// stopping early when fn returns false. One key read per slot; the
// value is read only for live slots.
func (s *Store) ForEachShard(tx stm.TxRO, shard int, fn func(k, v stm.Word) bool) bool {
	for _, slot := range s.table[shard] {
		k := tx.ReadField(slot, sKey)
		if k == emptyKey || k == tombKey {
			continue
		}
		if !fn(k, tx.ReadField(slot, sVal)) {
			return false
		}
	}
	return true
}

// ForEach calls fn for every (key, value) pair in the store, stopping
// early when fn returns false. Iteration order is the hash layout, not
// key order.
func (s *Store) ForEach(tx stm.TxRO, fn func(k, v stm.Word) bool) {
	for si := 0; si < s.shards; si++ {
		if !s.ForEachShard(tx, si, fn) {
			return
		}
	}
}

// SumShard returns the sum of all values in one shard — the bounded
// iteration aggregate the scan ops issue (a long read-only
// transaction over ~1/Shards of the store).
func (s *Store) SumShard(tx stm.TxRO, shard int) stm.Word {
	var sum stm.Word
	s.ForEachShard(tx, shard, func(_, v stm.Word) bool { sum += v; return true })
	return sum
}

// SumAll returns the sum of every value — the whole-store aggregate
// used by the balance-invariant checks.
func (s *Store) SumAll(tx stm.TxRO) stm.Word {
	var sum stm.Word
	s.ForEach(tx, func(_, v stm.Word) bool { sum += v; return true })
	return sum
}

// Len counts the stored keys.
func (s *Store) Len(tx stm.TxRO) int {
	n := 0
	s.ForEach(tx, func(_, _ stm.Word) bool { n++; return true })
	return n
}
