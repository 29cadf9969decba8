package util

// StripeSet is the per-thread read-set membership bitmap of the
// time-based engines (SwissTM, TinySTM): one bit per lock-table entry,
// indexed directly by the stripe index, set while that stripe has an entry
// in the owner's read log. Workloads that traverse shared structures
// (rbtree descents, STMBench7 graph walks) re-read the same stripes
// constantly; a set bit tells the engine the stripe is already logged, so
// the read log — and with it every validation — scales with *distinct*
// stripes, not total reads. The set stores no read-log position: the
// engines decide a re-read from the version they just sampled and their
// snapshot timestamp alone (DESIGN.md §7.1).
//
// Neighbouring stripes share a word exactly as their lock words share a
// cache line, so a traversal in allocation order walks the bitmap
// sequentially. It never grows: 2^TableBits/8 bytes for the life of the
// descriptor. A StripeSet is owned by exactly one thread and is not safe
// for concurrent use — exactly like the transaction descriptor embedding
// it.
type StripeSet []uint64

// NewStripeSet returns an empty set over a lock table of the given number
// of entries (a power of two).
func NewStripeSet(entries int) StripeSet {
	return make(StripeSet, (entries+63)/64)
}

// TestAndSet adds idx to the set and reports whether it was already in.
// The word index is masked by the (power-of-two) length, which is a no-op
// for any idx of the table the set was sized for and lets the compiler
// drop the bounds check.
func (s StripeSet) TestAndSet(idx uint32) bool {
	w := &s[int(idx>>6)&(len(s)-1)]
	bit := uint64(1) << (idx & 63)
	if *w&bit != 0 {
		return true
	}
	*w |= bit
	return false
}

// Remove takes idx out of the set.
func (s StripeSet) Remove(idx uint32) {
	s[idx>>6] &^= 1 << (idx & 63)
}
