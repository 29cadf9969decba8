// Package rbtree implements the transactional red-black tree
// microbenchmark — the workload with the shortest, simplest transactions
// in the paper's evaluation (Figure 5: range 16384, 20% updates; also
// Figure 10's substrate for the contention-manager ablation).
//
// The tree is written against the object API, so it runs on all four
// engines, including object-based RSTM; each node is one 6-field object.
// The algorithms are the textbook insert/delete with parent pointers and
// rebalancing fix-ups, executed entirely inside the caller's transaction.
package rbtree

import "swisstm/internal/stm"

// Node field indices.
const (
	fKey uint32 = iota
	fVal
	fLeft
	fRight
	fParent
	fColor
	nodeFields
)

const (
	red   stm.Word = 0
	black stm.Word = 1
)

// nilH is the nil node handle.
const nilH stm.Handle = 0

// Tree is a transactional red-black tree mapping uint64 keys to uint64
// values. The root pointer lives in a 1-field holder object so that the
// tree itself is reachable transactionally.
type Tree struct {
	holder stm.Handle
}

// New creates an empty tree using th for the allocation transaction.
func New(th stm.Thread) *Tree {
	return &Tree{holder: stm.Atomic(th, func(tx stm.Tx) stm.Handle { return tx.NewObject(1) })}
}

func (t *Tree) root(tx stm.TxRO) stm.Handle     { return stm.ReadRef(tx, t.holder, 0) }
func (t *Tree) setRoot(tx stm.Tx, h stm.Handle) { stm.WriteRef(tx, t.holder, 0, h) }

// Lookup returns the value stored under key.
func (t *Tree) Lookup(tx stm.TxRO, key stm.Word) (stm.Word, bool) {
	n := t.root(tx)
	for n != nilH {
		k := tx.ReadField(n, fKey)
		switch {
		case key == k:
			return tx.ReadField(n, fVal), true
		case key < k:
			n = stm.ReadRef(tx, n, fLeft)
		default:
			n = stm.ReadRef(tx, n, fRight)
		}
	}
	return 0, false
}

// RangeCount counts keys in [lo, hi] by in-order traversal — used by the
// STMBench7-style index scans and by tests.
func (t *Tree) RangeCount(tx stm.TxRO, lo, hi stm.Word) int {
	return t.rangeCount(tx, t.root(tx), lo, hi)
}

func (t *Tree) rangeCount(tx stm.TxRO, n stm.Handle, lo, hi stm.Word) int {
	if n == nilH {
		return 0
	}
	k := tx.ReadField(n, fKey)
	cnt := 0
	if lo < k {
		cnt += t.rangeCount(tx, stm.ReadRef(tx, n, fLeft), lo, hi)
	}
	if lo <= k && k <= hi {
		cnt++
	}
	if k < hi {
		cnt += t.rangeCount(tx, stm.ReadRef(tx, n, fRight), lo, hi)
	}
	return cnt
}

// Visit calls fn for every (key, value) pair in ascending key order.
func (t *Tree) Visit(tx stm.TxRO, fn func(k, v stm.Word)) {
	t.visit(tx, t.root(tx), fn)
}

func (t *Tree) visit(tx stm.TxRO, n stm.Handle, fn func(k, v stm.Word)) {
	if n == nilH {
		return
	}
	t.visit(tx, stm.ReadRef(tx, n, fLeft), fn)
	fn(tx.ReadField(n, fKey), tx.ReadField(n, fVal))
	t.visit(tx, stm.ReadRef(tx, n, fRight), fn)
}

// Insert adds key→val, returning false (and updating the value) when the
// key already existed. The entry is linked in node, or in a fresh node
// when node is 0: a node that Delete unlinked earlier in the same
// transaction can be linked again, because every one of its six fields is
// written as a fresh node's would be. When Insert returns false, node is
// left untouched and stays the caller's.
func (t *Tree) Insert(tx stm.Tx, key, val stm.Word, node stm.Handle) bool {
	parent := nilH
	n := t.root(tx)
	for n != nilH {
		k := tx.ReadField(n, fKey)
		if key == k {
			tx.WriteField(n, fVal, val)
			return false
		}
		parent = n
		if key < k {
			n = stm.ReadRef(tx, n, fLeft)
		} else {
			n = stm.ReadRef(tx, n, fRight)
		}
	}
	if node == nilH {
		node = tx.NewObject(nodeFields)
	} else {
		stm.WriteRef(tx, node, fLeft, nilH)
		stm.WriteRef(tx, node, fRight, nilH)
	}
	tx.WriteField(node, fKey, key)
	tx.WriteField(node, fVal, val)
	stm.WriteRef(tx, node, fParent, parent)
	tx.WriteField(node, fColor, red)
	if parent == nilH {
		t.setRoot(tx, node)
	} else if key < tx.ReadField(parent, fKey) {
		stm.WriteRef(tx, parent, fLeft, node)
	} else {
		stm.WriteRef(tx, parent, fRight, node)
	}
	t.insertFixup(tx, node)
	return true
}

func (t *Tree) rotateLeft(tx stm.Tx, x stm.Handle) {
	y := stm.ReadRef(tx, x, fRight)
	yl := stm.ReadRef(tx, y, fLeft)
	stm.WriteRef(tx, x, fRight, yl)
	if yl != nilH {
		stm.WriteRef(tx, yl, fParent, x)
	}
	xp := stm.ReadRef(tx, x, fParent)
	stm.WriteRef(tx, y, fParent, xp)
	if xp == nilH {
		t.setRoot(tx, y)
	} else if stm.ReadRef(tx, xp, fLeft) == x {
		stm.WriteRef(tx, xp, fLeft, y)
	} else {
		stm.WriteRef(tx, xp, fRight, y)
	}
	stm.WriteRef(tx, y, fLeft, x)
	stm.WriteRef(tx, x, fParent, y)
}

func (t *Tree) rotateRight(tx stm.Tx, x stm.Handle) {
	y := stm.ReadRef(tx, x, fLeft)
	yr := stm.ReadRef(tx, y, fRight)
	stm.WriteRef(tx, x, fLeft, yr)
	if yr != nilH {
		stm.WriteRef(tx, yr, fParent, x)
	}
	xp := stm.ReadRef(tx, x, fParent)
	stm.WriteRef(tx, y, fParent, xp)
	if xp == nilH {
		t.setRoot(tx, y)
	} else if stm.ReadRef(tx, xp, fRight) == x {
		stm.WriteRef(tx, xp, fRight, y)
	} else {
		stm.WriteRef(tx, xp, fLeft, y)
	}
	stm.WriteRef(tx, y, fRight, x)
	stm.WriteRef(tx, x, fParent, y)
}

func colorOf(tx stm.TxRO, n stm.Handle) stm.Word {
	if n == nilH {
		return black
	}
	return tx.ReadField(n, fColor)
}

func setColor(tx stm.Tx, n stm.Handle, c stm.Word) {
	if n != nilH {
		tx.WriteField(n, fColor, c)
	}
}

func (t *Tree) insertFixup(tx stm.Tx, z stm.Handle) {
	for {
		zp := stm.ReadRef(tx, z, fParent)
		if zp == nilH || colorOf(tx, zp) == black {
			break
		}
		zpp := stm.ReadRef(tx, zp, fParent)
		if zpp == nilH {
			break
		}
		if stm.ReadRef(tx, zpp, fLeft) == zp {
			u := stm.ReadRef(tx, zpp, fRight) // uncle
			if colorOf(tx, u) == red {
				setColor(tx, zp, black)
				setColor(tx, u, black)
				setColor(tx, zpp, red)
				z = zpp
				continue
			}
			if stm.ReadRef(tx, zp, fRight) == z {
				z = zp
				t.rotateLeft(tx, z)
				zp = stm.ReadRef(tx, z, fParent)
				zpp = stm.ReadRef(tx, zp, fParent)
			}
			setColor(tx, zp, black)
			setColor(tx, zpp, red)
			t.rotateRight(tx, zpp)
		} else {
			u := stm.ReadRef(tx, zpp, fLeft)
			if colorOf(tx, u) == red {
				setColor(tx, zp, black)
				setColor(tx, u, black)
				setColor(tx, zpp, red)
				z = zpp
				continue
			}
			if stm.ReadRef(tx, zp, fLeft) == z {
				z = zp
				t.rotateRight(tx, z)
				zp = stm.ReadRef(tx, z, fParent)
				zpp = stm.ReadRef(tx, zp, fParent)
			}
			setColor(tx, zp, black)
			setColor(tx, zpp, red)
			t.rotateLeft(tx, zpp)
		}
	}
	setColor(tx, t.root(tx), black)
}

// Delete removes key and returns the node it unlinked from the tree, or 0
// when key was absent. When key's node has two children, its in-order
// successor's entry moves into it and the successor is the node unlinked
// and returned. The caller may link that node again with Insert in the
// same transaction: every write to it is transactional, so a concurrent
// reader still holding it sees the tree as it was before the commit, or
// aborts.
func (t *Tree) Delete(tx stm.Tx, key stm.Word) stm.Handle {
	z := t.root(tx)
	for z != nilH {
		k := tx.ReadField(z, fKey)
		if key == k {
			break
		}
		if key < k {
			z = stm.ReadRef(tx, z, fLeft)
		} else {
			z = stm.ReadRef(tx, z, fRight)
		}
	}
	if z == nilH {
		return nilH
	}

	// y is the node physically removed; x its (possibly nil) child that
	// moves up; xParent tracks x's parent since x may be nil.
	y := z
	if stm.ReadRef(tx, z, fLeft) != nilH && stm.ReadRef(tx, z, fRight) != nilH {
		// Two children: splice out the in-order successor instead.
		y = stm.ReadRef(tx, z, fRight)
		for {
			l := stm.ReadRef(tx, y, fLeft)
			if l == nilH {
				break
			}
			y = l
		}
	}
	var x stm.Handle
	if stm.ReadRef(tx, y, fLeft) != nilH {
		x = stm.ReadRef(tx, y, fLeft)
	} else {
		x = stm.ReadRef(tx, y, fRight)
	}
	xParent := stm.ReadRef(tx, y, fParent)
	if x != nilH {
		stm.WriteRef(tx, x, fParent, xParent)
	}
	if xParent == nilH {
		t.setRoot(tx, x)
	} else if stm.ReadRef(tx, xParent, fLeft) == y {
		stm.WriteRef(tx, xParent, fLeft, x)
	} else {
		stm.WriteRef(tx, xParent, fRight, x)
	}
	if y != z {
		// Move successor's payload into z (keys move, nodes stay).
		tx.WriteField(z, fKey, tx.ReadField(y, fKey))
		tx.WriteField(z, fVal, tx.ReadField(y, fVal))
	}
	if colorOf(tx, y) == black {
		t.deleteFixup(tx, x, xParent)
	}
	return y
}

func (t *Tree) deleteFixup(tx stm.Tx, x, xParent stm.Handle) {
	for x != t.root(tx) && colorOf(tx, x) == black {
		if xParent == nilH {
			break
		}
		if stm.ReadRef(tx, xParent, fLeft) == x {
			w := stm.ReadRef(tx, xParent, fRight) // sibling
			if colorOf(tx, w) == red {
				setColor(tx, w, black)
				setColor(tx, xParent, red)
				t.rotateLeft(tx, xParent)
				w = stm.ReadRef(tx, xParent, fRight)
			}
			if w == nilH {
				x = xParent
				xParent = stm.ReadRef(tx, x, fParent)
				continue
			}
			wl := stm.ReadRef(tx, w, fLeft)
			wr := stm.ReadRef(tx, w, fRight)
			if colorOf(tx, wl) == black && colorOf(tx, wr) == black {
				setColor(tx, w, red)
				x = xParent
				xParent = stm.ReadRef(tx, x, fParent)
				continue
			}
			if colorOf(tx, wr) == black {
				setColor(tx, wl, black)
				setColor(tx, w, red)
				t.rotateRight(tx, w)
				w = stm.ReadRef(tx, xParent, fRight)
			}
			setColor(tx, w, colorOf(tx, xParent))
			setColor(tx, xParent, black)
			setColor(tx, stm.ReadRef(tx, w, fRight), black)
			t.rotateLeft(tx, xParent)
			x = t.root(tx)
			break
		} else {
			w := stm.ReadRef(tx, xParent, fLeft)
			if colorOf(tx, w) == red {
				setColor(tx, w, black)
				setColor(tx, xParent, red)
				t.rotateRight(tx, xParent)
				w = stm.ReadRef(tx, xParent, fLeft)
			}
			if w == nilH {
				x = xParent
				xParent = stm.ReadRef(tx, x, fParent)
				continue
			}
			wl := stm.ReadRef(tx, w, fLeft)
			wr := stm.ReadRef(tx, w, fRight)
			if colorOf(tx, wr) == black && colorOf(tx, wl) == black {
				setColor(tx, w, red)
				x = xParent
				xParent = stm.ReadRef(tx, x, fParent)
				continue
			}
			if colorOf(tx, wl) == black {
				setColor(tx, wr, black)
				setColor(tx, w, red)
				t.rotateLeft(tx, w)
				w = stm.ReadRef(tx, xParent, fLeft)
			}
			setColor(tx, w, colorOf(tx, xParent))
			setColor(tx, xParent, black)
			setColor(tx, stm.ReadRef(tx, w, fLeft), black)
			t.rotateRight(tx, xParent)
			x = t.root(tx)
			break
		}
	}
	setColor(tx, x, black)
}

// CheckInvariants walks the whole tree inside tx and reports the node
// count. It panics with a descriptive message when a red-black or BST
// invariant is violated (tests only).
func (t *Tree) CheckInvariants(tx stm.TxRO) int {
	root := t.root(tx)
	if root == nilH {
		return 0
	}
	if colorOf(tx, root) != black {
		panic("rbtree: root is red")
	}
	count, _ := t.check(tx, root, nilH, 0, ^stm.Word(0))
	return count
}

func (t *Tree) check(tx stm.TxRO, n, parent stm.Handle, lo, hi stm.Word) (count, blackHeight int) {
	if n == nilH {
		return 0, 1
	}
	if stm.ReadRef(tx, n, fParent) != parent {
		panic("rbtree: bad parent pointer")
	}
	k := tx.ReadField(n, fKey)
	if k < lo || k > hi {
		panic("rbtree: BST order violated")
	}
	c := colorOf(tx, n)
	l := stm.ReadRef(tx, n, fLeft)
	r := stm.ReadRef(tx, n, fRight)
	if c == red && (colorOf(tx, l) == red || colorOf(tx, r) == red) {
		panic("rbtree: red node with red child")
	}
	var lc, lb, rc, rb int
	if k > 0 {
		lc, lb = t.check(tx, l, n, lo, k-1)
	} else {
		lc, lb = t.check(tx, l, n, lo, 0)
	}
	rc, rb = t.check(tx, r, n, k+1, hi)
	if lb != rb {
		panic("rbtree: black height mismatch")
	}
	bh := lb
	if c == black {
		bh++
	}
	return lc + rc + 1, bh
}
