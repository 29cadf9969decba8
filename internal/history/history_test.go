package history

import (
	"slices"
	"testing"
)

func r(k, v uint64) Op { return Op{Key: k, Value: v} }
func w(k, v uint64) Op { return Op{Write: true, Key: k, Value: v} }

// txn is a committed attempt over [start, end]; an attempt is named by
// its index in the history.
func txn(start, end int64, ops ...Op) Txn {
	return Txn{Ops: ops, Committed: true, Start: start, End: end}
}

func aborted(start, end int64, ops ...Op) Txn {
	return Txn{Ops: ops, Start: start, End: end}
}

// Keys x and y; every write is a read-modify-write of the key unless a
// case says otherwise, so the version order is the chain of them.
const x, y = 1, 2

// TestRejects builds one history per anomaly class by hand; each must be
// rejected with its class and its shortest cycle (or, for G1a and G1b,
// its writer and reader).
func TestRejects(t *testing.T) {
	for _, c := range []struct {
		name  string
		txns  []Txn
		class Class
		cycle []int
	}{
		{"G0 write cycle", []Txn{
			// x: 0 → 20 (#1) → 10 (#0); y: 0 → 11 (#0) → 21 (#1): each
			// installs a version after the other's.
			txn(0, 10, r(x, 20), w(x, 10), r(y, 0), w(y, 11)),
			txn(0, 10, r(x, 0), w(x, 20), r(y, 11), w(y, 21)),
		}, G0, []int{0, 1}},
		{"G1a aborted read", []Txn{
			aborted(0, 5, r(x, 0), w(x, 10)),
			txn(0, 10, r(x, 10)),
		}, G1a, []int{0, 1}},
		{"G1b intermediate read", []Txn{
			txn(0, 5, r(x, 0), w(x, 10), w(x, 11)),
			txn(0, 10, r(x, 10)),
		}, G1b, []int{0, 1}},
		{"G1c circular information flow", []Txn{
			// Each reads the other's write, and neither overwrites it.
			txn(0, 10, r(x, 0), w(x, 10), r(y, 20)),
			txn(0, 10, r(y, 0), w(y, 20), r(x, 10)),
		}, G1c, []int{0, 1}},
		{"G2 write skew", []Txn{
			txn(0, 1, r(x, 0), w(x, 30)), // an unrelated earlier commit
			txn(2, 10, r(x, 30), r(y, 0), w(x, 10)),
			txn(2, 10, r(x, 30), r(y, 0), w(y, 20)),
		}, G2, []int{1, 2}},
		{"G2 lost update", []Txn{
			txn(0, 10, r(x, 0), w(x, 10)),
			txn(0, 10, r(x, 0), w(x, 20)),
		}, G2, []int{0, 1}},
		{"real-time stale read", []Txn{
			// #1 starts after #0 completed and still reads x's old value.
			txn(0, 10, r(x, 0), w(x, 10)),
			txn(20, 30, r(x, 0)),
		}, RealTime, []int{0, 1}},
		{"zombie torn snapshot", []Txn{
			// #0 updates x and y together; the aborted #2 saw x after it
			// and y before it. #1 shows the shortest cycle is named.
			txn(0, 10, r(x, 0), w(x, 10), r(y, 0), w(y, 11)),
			txn(20, 30, r(x, 10), w(x, 20)),
			aborted(0, 15, r(x, 10), r(y, 0)),
		}, Zombie, []int{2, 0}},
		{"zombie reads an aborted write", []Txn{
			aborted(0, 5, r(x, 0), w(x, 10)),
			aborted(0, 10, r(x, 10)),
		}, Zombie, []int{0, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := Check(c.txns)
			if a == nil {
				t.Fatalf("accepted; want %s %v", c.class, c.cycle)
			}
			if a.Class != c.class || !slices.Equal(a.Txns, c.cycle) {
				t.Fatalf("got %v; want %s %v", a, c.class, c.cycle)
			}
		})
	}
}

// TestShortestCycle: of two G2 cycles through one write, the check names
// the shorter.
func TestShortestCycle(t *testing.T) {
	a := Check([]Txn{
		txn(0, 10, r(x, 0), w(x, 10), r(y, 0)),
		txn(0, 10, r(y, 0), w(y, 20), r(x, 0)), // #0 -rw-> #1 -rw-> #0
		txn(0, 10, r(x, 10), w(x, 30)),
		txn(0, 10, r(x, 30), w(x, 40), r(y, 0)), // a longer way round
	})
	if a == nil || a.Class != G2 || len(a.Txns) != 2 {
		t.Fatalf("got %v; want a G2 cycle of two", a)
	}
}

// TestAccepts: histories every engine may produce.
func TestAccepts(t *testing.T) {
	for _, c := range []struct {
		name string
		txns []Txn
	}{
		{"read-only attempt reads an old consistent snapshot", []Txn{
			txn(0, 10, r(x, 0), w(x, 10), r(y, 0), w(y, 11)),
			txn(20, 30, r(x, 10), w(x, 20), r(y, 11), w(y, 21)),
			// #2 overlaps #1 and reads the snapshot #0 left.
			txn(15, 40, r(x, 10), r(y, 11)),
		}},
		{"aborted attempt read consistently", []Txn{
			txn(0, 10, r(x, 0), w(x, 10), r(y, 0), w(y, 11)),
			txn(20, 30, r(x, 10), w(x, 20), r(y, 11), w(y, 21)),
			// #2 read #0's snapshot, wrote nothing that counts, aborted.
			aborted(15, 40, r(x, 10), r(y, 11), w(x, 99)),
		}},
		{"serial chain with internal reads", []Txn{
			txn(0, 10, r(x, 0), w(x, 10), r(x, 10), w(x, 11)),
			txn(20, 30, r(x, 11), w(x, 20)),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if a := Check(c.txns); a != nil {
				t.Fatalf("rejected: %v", a)
			}
		})
	}
}
