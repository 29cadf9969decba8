package txkv

import "swisstm/internal/stm"

// Slots returns the slot count of each shard.
func (s *Store) Slots() int { return s.slots }

// SlotAt returns the key and value fields of one slot of one shard, so a
// test can compare two stores slot by slot.
func (s *Store) SlotAt(tx stm.TxRO, shard, slot int) (key, val stm.Word) {
	h := s.table[shard][slot]
	return tx.ReadField(h, sKey), tx.ReadField(h, sVal)
}

// Place runs NewInitialized's placement pass for keys 1..keys over s's
// table, which it leaves untouched.
func Place(s *Store, keys int) { s.place(keys) }

// Rows returns the store's shard rows.
func (s *Store) Rows() [][]stm.Handle { return s.table }
