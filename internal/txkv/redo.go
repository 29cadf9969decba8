package txkv

import (
	"encoding/binary"
	"fmt"

	"swisstm/internal/stm"
	"swisstm/internal/wal"
)

// Redo records (DESIGN.md §12): each WAL frame carries one redo
// record — the logical effect of one acknowledged, committed txkv
// transaction. A record is a short list of entries so that an
// all-or-nothing batch is one frame (one atomic replay unit).
//
// Record payload layout (little-endian):
//
//	[ count u16 | entry... ]
//
// Entry layouts by op byte:
//
//	RedoInit:     [ op u8 | keys u64 | balance u64 ]
//	RedoPut:      [ op u8 | key u64 | val u64 ]
//	RedoDelete:   [ op u8 | key u64 ]
//	RedoTransfer: [ op u8 | amount u64 | nkeys u16 | key u64 ... ]
//
// RedoInit is only valid as the single entry of frame 1: it records
// the baseline population (keys 1..keys at balance each) that the
// server seeded before serving, so replay reconstructs state without
// any out-of-band configuration. A successful CAS is logged as a
// RedoPut of its post-image; failed operations and reads log nothing.

// RedoOp identifies a redo entry kind.
type RedoOp uint8

const (
	// RedoInit seeds keys 1..Key with value Val each (frame 1 only).
	RedoInit RedoOp = iota + 1
	// RedoPut sets Key → Val.
	RedoPut
	// RedoDelete removes Key (which must be present at replay).
	RedoDelete
	// RedoTransfer moves Amount from Keys[0] to each of Keys[1:].
	RedoTransfer
)

// RedoEntry is one logical mutation inside a redo record. Key/Val
// double as keys/balance for RedoInit.
type RedoEntry struct {
	Op     RedoOp
	Key    stm.Word
	Val    stm.Word
	Amount stm.Word
	Keys   []stm.Word
}

// MaxRedoEntries bounds the entries in one record (mirrors the wire
// protocol's batch cap).
const MaxRedoEntries = 256

// AppendRedo encodes entries onto dst and returns the extended slice.
func AppendRedo(dst []byte, entries []RedoEntry) ([]byte, error) {
	if len(entries) == 0 || len(entries) > MaxRedoEntries {
		return nil, fmt.Errorf("txkv: redo record with %d entries (want 1..%d)", len(entries), MaxRedoEntries)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = append(dst, byte(e.Op))
		switch e.Op {
		case RedoInit, RedoPut:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Key))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Val))
		case RedoDelete:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Key))
		case RedoTransfer:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Amount))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Keys)))
			for _, k := range e.Keys {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(k))
			}
		default:
			return nil, fmt.Errorf("txkv: redo entry with unknown op %d", e.Op)
		}
	}
	return dst, nil
}

// redoCursor is a bounds-checked decoder (the txkvwire cursor idiom):
// accessors record the first error and return zeros afterwards, so
// DecodeRedo is straight-line and cannot index out of bounds.
type redoCursor struct {
	b   []byte
	off int
	err error
}

func (c *redoCursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *redoCursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if len(c.b)-c.off < n {
		c.fail(fmt.Errorf("txkv: truncated redo record (need %d bytes at offset %d of %d)", n, c.off, len(c.b)))
		return false
	}
	return true
}

func (c *redoCursor) u8() byte {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *redoCursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *redoCursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// key reads the key of a mutation, which is never a reserved sentinel.
func (c *redoCursor) key() stm.Word {
	k := stm.Word(c.u64())
	if k == emptyKey || k == tombKey {
		c.fail(fmt.Errorf("txkv: redo record names reserved key %d", k))
	}
	return k
}

// DecodeRedo decodes one record. It never panics on arbitrary bytes,
// rejects trailing garbage and refuses a mutation of a reserved key,
// which no acknowledged operation can have made.
func DecodeRedo(payload []byte) ([]RedoEntry, error) {
	c := &redoCursor{b: payload}
	n := int(c.u16())
	if c.err == nil && (n < 1 || n > MaxRedoEntries) {
		c.fail(fmt.Errorf("txkv: redo record with %d entries (want 1..%d)", n, MaxRedoEntries))
	}
	var entries []RedoEntry
	for i := 0; i < n && c.err == nil; i++ {
		var e RedoEntry
		e.Op = RedoOp(c.u8())
		switch e.Op {
		case RedoInit:
			e.Key = stm.Word(c.u64())
			e.Val = stm.Word(c.u64())
		case RedoPut:
			e.Key = c.key()
			e.Val = stm.Word(c.u64())
		case RedoDelete:
			e.Key = c.key()
		case RedoTransfer:
			e.Amount = stm.Word(c.u64())
			nk := int(c.u16())
			if !c.need(8 * nk) {
				break
			}
			e.Keys = make([]stm.Word, nk)
			for j := range e.Keys {
				e.Keys[j] = c.key()
			}
		default:
			c.fail(fmt.Errorf("txkv: redo entry %d has unknown op %d", i, e.Op))
		}
		if c.err == nil {
			entries = append(entries, e)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("txkv: %d trailing bytes after redo record", len(payload)-c.off)
	}
	return entries, nil
}

// MaxKeys bounds the population a store is built for from a log's init
// record. ConfigForKeys provisions four slots per key, a 128 MiB slot
// table at this bound; a forged population could ask for terabytes of it
// before any engine's arena refused the first object.
const MaxKeys = 1 << 22

// NewInitialized builds a store sized for keys (at most MaxKeys) and
// seeds keys 1..keys with balance each — the server's baseline
// population and the replay meaning of RedoInit. The result is slot for
// slot the store New followed by Put of keys 1..keys in ascending order
// builds, but no key is probed or written transactionally: place groups
// the keys by shard in plain Go memory, and build makes them the initial
// contents of the slot objects.
func NewInitialized(th stm.Thread, keys int, balance stm.Word) *Store {
	cfg := ConfigForKeys(keys)
	s := &Store{shards: cfg.Shards, slots: cfg.Slots}
	s.build(th, s.place(keys), balance)
	return s
}

// place returns keys 1..keys grouped by shard, each shard's in ascending
// order: the order Put of keys 1..keys inserts them in. Keys of different
// shards never share a probe sequence, and a fresh table has no
// tombstones, so a shard is full exactly when it receives more keys than
// it has slots; place then panics with Put's message at the key Put
// would panic at.
func (s *Store) place(keys int) [][]uint32 {
	byShard := make([][]uint32, s.shards)
	for k := 1; k <= keys; k++ {
		si := s.ShardOf(stm.Word(k))
		if len(byShard[si]) == s.slots {
			panic("txkv: shard full (size the store with ConfigForKeys)")
		}
		byShard[si] = append(byShard[si], uint32(k))
	}
	return byShard
}

// ApplyRedo replays one redo record as a single transaction. A
// mutation the log says succeeded but the store rejects (deleting an
// absent key, an impossible transfer) is divergence — the log prefix
// no longer describes this store — and fails the replay.
func (s *Store) ApplyRedo(th stm.Thread, entries []RedoEntry) error {
	_, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) {
		for i := range entries {
			e := &entries[i]
			switch e.Op {
			case RedoPut:
				s.Put(tx, e.Key, e.Val)
			case RedoDelete:
				if !s.Delete(tx, e.Key) {
					return struct{}{}, fmt.Errorf("txkv: redo delete of absent key %d (log diverged from store)", e.Key)
				}
			case RedoTransfer:
				if !s.Transfer(tx, e.Keys, e.Amount) {
					return struct{}{}, fmt.Errorf("txkv: redo transfer of %d over %v failed (log diverged from store)", e.Amount, e.Keys)
				}
			default:
				return struct{}{}, fmt.Errorf("txkv: redo entry with op %d is not replayable mid-log", e.Op)
			}
		}
		return struct{}{}, nil
	})
	return err
}

// ReplayWAL recovers the log in dir and replays its clean prefix into
// a fresh store on th's engine. It returns a nil store when the log
// holds no frames (a fresh directory: the caller seeds and logs
// RedoInit itself). A log whose first frame is not a RedoInit record,
// or whose records diverge from the rebuilt store, is an error — the
// log does not describe a txkv history. So is a record the store cannot
// apply — an init population over MaxKeys or beyond the engine's arena,
// a shard overflowing: its panic, already rolled back by the engine,
// becomes an error naming the frame.
func ReplayWAL(fs wal.FS, dir string, th stm.Thread) (*Store, wal.RecoverInfo, error) {
	var s *Store
	info, err := wal.Recover(fs, dir, func(lsn uint64, payload []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("frame %d: %v", lsn, r)
			}
		}()
		entries, err := DecodeRedo(payload)
		if err != nil {
			return fmt.Errorf("frame %d: %w", lsn, err)
		}
		if s == nil {
			if len(entries) != 1 || entries[0].Op != RedoInit {
				return fmt.Errorf("frame %d: log does not begin with an init record", lsn)
			}
			if entries[0].Key > MaxKeys {
				return fmt.Errorf("frame %d: init population %d over txkv.MaxKeys (%d)", lsn, entries[0].Key, MaxKeys)
			}
			s = NewInitialized(th, int(entries[0].Key), entries[0].Val)
			return nil
		}
		if err := s.ApplyRedo(th, entries); err != nil {
			return fmt.Errorf("frame %d: %w", lsn, err)
		}
		return nil
	})
	if err != nil {
		return nil, info, err
	}
	return s, info, nil
}
