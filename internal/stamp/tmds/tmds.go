// Package tmds provides the small transactional data structures the STAMP
// applications are built from: a chained hash map, a FIFO queue and a
// linked list, all expressed through the object API (and therefore usable
// on any word-based engine; STAMP does not run on RSTM, matching the
// paper).
package tmds

import (
	"swisstm/internal/stm"
)

// hashKey mixes a key into a bucket index.
func hashKey(k stm.Word, buckets uint32) uint32 {
	h := k * 0x9e3779b97f4a7c15
	return uint32(h>>33) % buckets
}

// Map is a transactional chained hash map from Word keys to Word values.
// The bucket array is one object with one head-handle field per bucket;
// entries are 3-field objects {key, val, next}.
type Map struct {
	buckets stm.Handle
	n       uint32
}

const (
	meKey uint32 = iota
	meVal
	meNext
)

// NewMap allocates a map with n buckets inside tx.
func NewMap(tx stm.Tx, n uint32) *Map {
	return &Map{buckets: tx.NewObject(n), n: n}
}

// Get returns the value stored under k.
func (m *Map) Get(tx stm.Tx, k stm.Word) (stm.Word, bool) {
	b := hashKey(k, m.n)
	e := stm.Handle(tx.ReadField(m.buckets, b))
	for e != 0 {
		if tx.ReadField(e, meKey) == k {
			return tx.ReadField(e, meVal), true
		}
		e = stm.Handle(tx.ReadField(e, meNext))
	}
	return 0, false
}

// Put inserts or overwrites k→v. It reports whether the key was new.
func (m *Map) Put(tx stm.Tx, k, v stm.Word) bool {
	b := hashKey(k, m.n)
	head := stm.Handle(tx.ReadField(m.buckets, b))
	for e := head; e != 0; e = stm.Handle(tx.ReadField(e, meNext)) {
		if tx.ReadField(e, meKey) == k {
			tx.WriteField(e, meVal, v)
			return false
		}
	}
	e := tx.NewObject(3)
	tx.WriteField(e, meKey, k)
	tx.WriteField(e, meVal, v)
	tx.WriteField(e, meNext, stm.Word(head))
	tx.WriteField(m.buckets, b, stm.Word(e))
	return true
}

// Visit calls fn for every key/value pair (iteration order unspecified).
func (m *Map) Visit(tx stm.Tx, fn func(k, v stm.Word)) {
	for b := uint32(0); b < m.n; b++ {
		e := stm.Handle(tx.ReadField(m.buckets, b))
		for e != 0 {
			fn(tx.ReadField(e, meKey), tx.ReadField(e, meVal))
			e = stm.Handle(tx.ReadField(e, meNext))
		}
	}
}

// Queue is a transactional FIFO (linked nodes, head/tail anchor object).
type Queue struct {
	anchor stm.Handle // fields: head, tail, length
}

const (
	qHead uint32 = iota
	qTail
	qLen
)

const (
	qnVal uint32 = iota
	qnNext
)

// NewQueue allocates an empty queue inside tx.
func NewQueue(tx stm.Tx) *Queue {
	return &Queue{anchor: tx.NewObject(3)}
}

// Enqueue appends v.
func (q *Queue) Enqueue(tx stm.Tx, v stm.Word) {
	n := tx.NewObject(2)
	tx.WriteField(n, qnVal, v)
	tail := stm.Handle(tx.ReadField(q.anchor, qTail))
	if tail == 0 {
		tx.WriteField(q.anchor, qHead, stm.Word(n))
	} else {
		tx.WriteField(tail, qnNext, stm.Word(n))
	}
	tx.WriteField(q.anchor, qTail, stm.Word(n))
	tx.WriteField(q.anchor, qLen, tx.ReadField(q.anchor, qLen)+1)
}

// Dequeue removes and returns the head value (ok=false when empty).
func (q *Queue) Dequeue(tx stm.Tx) (stm.Word, bool) {
	head := stm.Handle(tx.ReadField(q.anchor, qHead))
	if head == 0 {
		return 0, false
	}
	next := tx.ReadField(head, qnNext)
	tx.WriteField(q.anchor, qHead, next)
	if next == 0 {
		tx.WriteField(q.anchor, qTail, 0)
	}
	tx.WriteField(q.anchor, qLen, tx.ReadField(q.anchor, qLen)-1)
	return tx.ReadField(head, qnVal), true
}

// Len returns the queue length.
func (q *Queue) Len(tx stm.Tx) int { return int(tx.ReadField(q.anchor, qLen)) }

// List is a transactional singly linked list used as an append-only log.
type List struct {
	anchor stm.Handle // fields: head, length
}

// NewList allocates an empty list inside tx.
func NewList(tx stm.Tx) *List {
	return &List{anchor: tx.NewObject(2)}
}

// Push prepends v.
func (l *List) Push(tx stm.Tx, v stm.Word) {
	n := tx.NewObject(2)
	tx.WriteField(n, 0, v)
	tx.WriteField(n, 1, tx.ReadField(l.anchor, 0))
	tx.WriteField(l.anchor, 0, stm.Word(n))
	tx.WriteField(l.anchor, 1, tx.ReadField(l.anchor, 1)+1)
}

// Visit calls fn for each element, newest first.
func (l *List) Visit(tx stm.Tx, fn func(v stm.Word)) {
	n := stm.Handle(tx.ReadField(l.anchor, 0))
	for n != 0 {
		fn(tx.ReadField(n, 0))
		n = stm.Handle(tx.ReadField(n, 1))
	}
}
