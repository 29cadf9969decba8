package rbtree

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"swisstm/internal/stm"
)

// recycler drives TestRecycle*: a tree, the keys it must hold (key k
// holds value 10k) and the next key never inserted.
type recycler struct {
	t    *testing.T
	tree *Tree
	keys []stm.Word
	next stm.Word
	rng  *rand.Rand
}

func newRecycler(t *testing.T, th stm.Thread) *recycler {
	r := &recycler{t: t, tree: New(th), next: 1, rng: rand.New(rand.NewSource(3))}
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for ; r.next <= 64; r.next++ {
			r.tree.Insert(tx, r.next, r.next*10, 0)
			r.keys = append(r.keys, r.next)
		}
	})
	return r
}

// step returns a body that deletes k random present keys and inserts k
// new ones through the nodes the deletes returned, and the keys the tree
// holds once it commits.
func (r *recycler) step(k int) (body func(tx stm.Tx), after []stm.Word) {
	after = slices.Clone(r.keys)
	r.rng.Shuffle(len(after), func(i, j int) { after[i], after[j] = after[j], after[i] })
	gone := slices.Clone(after[:k])
	for i := range gone {
		after[i] = r.next
		r.next++
	}
	added := after[:k]
	return func(tx stm.Tx) {
		nodes := make([]stm.Handle, 0, k)
		for _, key := range gone {
			n := r.tree.Delete(tx, key)
			if n == 0 {
				panic("rbtree: a present key deleted nothing")
			}
			nodes = append(nodes, n)
		}
		for i, key := range added {
			if !r.tree.Insert(tx, key, key*10, nodes[i]) {
				panic("rbtree: a new key was already present")
			}
		}
	}, after
}

// commit runs a step and checks the tree against the keys it leaves.
func (r *recycler) commit(th stm.Thread, k int) {
	r.t.Helper()
	body, after := r.step(k)
	stm.AtomicVoid(th, body)
	r.keys = after
	r.agree(th, "commit")
}

// agree fails the test unless the tree is a red-black tree holding
// exactly r.keys.
func (r *recycler) agree(th stm.Thread, when string) {
	r.t.Helper()
	var got []stm.Word
	n := stm.AtomicRO(th, func(tx stm.TxRO) int {
		got = got[:0]
		r.tree.Visit(tx, func(k, v stm.Word) {
			if v != k*10 {
				panic("rbtree: a key holds another key's value")
			}
			got = append(got, k)
		})
		return r.tree.CheckInvariants(tx)
	})
	want := slices.Sorted(slices.Values(r.keys))
	if n != len(want) || !slices.Equal(got, want) {
		r.t.Fatalf("%s: %d nodes, keys %v; want keys %v", when, n, got, want)
	}
}

// TestRecycleModel: each transaction deletes k keys and inserts k new
// ones through the nodes Delete returned. The tree holds the model's keys
// after every step, and on the word engines the arena does not grow.
func TestRecycleModel(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			e := factory()
			th := e.NewThread(0)
			r := newRecycler(t, th)
			used := -1
			if e.Arena() != nil {
				used = e.Arena().Used()
			}
			for i := 0; i < 300; i++ {
				r.commit(th, 1+i%8)
			}
			if used >= 0 && e.Arena().Used() != used {
				t.Errorf("arena grew from %d to %d words", used, e.Arena().Used())
			}
		})
	}
}

// TestRecycleRollback runs the same body in a transaction that returns an
// error: every delete, relink and rebalance rolls back, so the tree still
// holds the model's keys, and committed steps then work as before.
func TestRecycleRollback(t *testing.T) {
	rollback := errors.New("rollback")
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			th := factory().NewThread(0)
			r := newRecycler(t, th)
			for i := 0; i < 50; i++ {
				body, _ := r.step(8)
				_, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) {
					body(tx)
					return struct{}{}, rollback
				})
				if !errors.Is(err, rollback) {
					t.Fatalf("rolled-back step: %v", err)
				}
				r.agree(th, "rollback")
				r.commit(th, 8)
			}
		})
	}
}

// nodeOf returns the node holding key, 0 when it is absent.
func (t *Tree) nodeOf(tx stm.TxRO, key stm.Word) stm.Handle {
	n := t.root(tx)
	for n != nilH {
		k := tx.ReadField(n, fKey)
		switch {
		case key == k:
			return n
		case key < k:
			n = stm.ReadRef(tx, n, fLeft)
		default:
			n = stm.ReadRef(tx, n, fRight)
		}
	}
	return nilH
}

// TestDeleteReturnsSuccessor: deleting a key whose node has two children
// unlinks its in-order successor, whose entry moves into the key's node,
// so Delete returns the successor's node and the key's node stays linked.
func TestDeleteReturnsSuccessor(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			th := factory().NewThread(0)
			tree := New(th)
			var key stm.Word
			var z, y, got, moved stm.Handle
			stm.AtomicVoid(th, func(tx stm.Tx) {
				for k := stm.Word(1); k <= 15; k++ {
					tree.Insert(tx, k, k, 0)
				}
				z = tree.root(tx)
				if stm.ReadRef(tx, z, fLeft) == nilH || stm.ReadRef(tx, z, fRight) == nilH {
					panic("rbtree: the root of 15 keys has fewer than two children")
				}
				key = tx.ReadField(z, fKey)
				y = tree.nodeOf(tx, key+1)
				got = tree.Delete(tx, key)
				moved = tree.nodeOf(tx, key+1)
				tree.CheckInvariants(tx)
			})
			if got != y || got == z {
				t.Errorf("Delete(%d) = %d, want the successor's node %d (the key's is %d)", key, got, y, z)
			}
			if moved != z {
				t.Errorf("key %d is in node %d, want the deleted key's node %d", key+1, moved, z)
			}
		})
	}
}
