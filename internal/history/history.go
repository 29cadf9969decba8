// Package history checks a recorded history of transactional attempts for
// opacity (every attempt, aborted ones too) and strict serializability
// (the committed ones), as arXiv 1511.01779 defines them. Written values
// are unique per key and 0 is every key's initial value, so a read names
// the write it read from; a key's version order is its chain of
// read-modify-writes (Elle's inference, arXiv 2003.10554), so a blind
// write is read from but not ordered. Check builds Adya's dependency graph
// over the committed attempts (ww, wr, rw) plus real-time edges, names the
// first failure by class and shortest cycle, then checks each aborted
// attempt on its own as a read-only node of that graph.
package history

import (
	"fmt"
	"slices"
)

// Op is one read or write of a key, Value the value read or written.
type Op struct {
	Write      bool
	Key, Value uint64
}

// Txn is one recorded attempt, named by its index in the history: its
// operations in program order, whether it committed, and its interval on
// one clock (invoked at Start, completed at End).
type Txn struct {
	Ops        []Op
	Committed  bool
	Start, End int64
}

// Class names an anomaly: Adya's G0 (write cycle), G1a (aborted read),
// G1b (intermediate read), G1c (circular information flow), G2 (a cycle
// with an anti-dependency); a cycle only real time closes; an aborted
// attempt whose reads no serial order of the committed ones explains.
type Class string

const (
	G0       Class = "G0"
	G1a      Class = "G1a"
	G1b      Class = "G1b"
	G1c      Class = "G1c"
	G2       Class = "G2"
	RealTime Class = "real-time"
	Zombie   Class = "zombie"
)

// Anomaly is a failed check: its class and the attempts involved. For a
// cycle each depends on the one before it, the first on the last; for G1a,
// G1b and a zombie's bad read they are the writer (-1: none) and reader.
type Anomaly struct {
	Class Class
	Txns  []int
}

func (a *Anomaly) Error() string { return fmt.Sprintf("%s: cycle or pair %v", a.Class, a.Txns) }

// kind is a dependency edge's kind, one bit each.
type kind uint8

const ww, wr, rw, rt kind = 1, 2, 4, 8

type edge struct {
	to   int
	kind kind
}

type version struct{ key, val uint64 }

type writer struct {
	txn   int  // the attempt that wrote a version
	final bool // its last write of the key
}

type checker struct {
	txns   []Txn
	writes map[version]writer
	next   map[version][]int // committed attempts that installed the version after it
	adj    [][]edge          // the committed attempts' edges, by source
}

// Check returns the first anomaly in txns, or nil when every committed
// attempt fits one serial order that respects real time and every aborted
// attempt read a state of that order.
func Check(txns []Txn) *Anomaly {
	c := &checker{txns: txns, writes: map[version]writer{}, next: map[version][]int{}, adj: make([][]edge, len(txns))}
	for i, t := range txns {
		rs, last := split(t)
		for _, op := range t.Ops {
			if op.Write {
				c.writes[version{op.Key, op.Value}] = writer{i, last[op.Key] == op.Value}
			}
		}
		for _, r := range rs {
			if _, rmw := last[r.Key]; rmw && t.Committed {
				v := version{r.Key, r.Value}
				c.next[v] = append(c.next[v], i)
			}
		}
	}
	for i, t := range txns {
		if !t.Committed {
			continue
		}
		in, out, bad := c.deps(i)
		if bad != nil {
			return bad
		}
		for _, e := range in {
			if e.kind != rt { // the source's own out edges hold it
				c.adj[e.to] = append(c.adj[e.to], edge{i, e.kind})
			}
		}
		c.adj[i] = append(c.adj[i], out...)
	}
	for k, mask := range []kind{ww, ww | wr, ww | wr | rw, ww | wr | rw | rt} {
		var best []int
		for i := range txns {
			if p := c.path(i, c.adj[i], mask, func(j int) bool { return j == i }); p != nil && (best == nil || len(p) < len(best)) {
				best = p
			}
		}
		if best != nil {
			return &Anomaly{[]Class{G0, G1c, G2, RealTime}[k], best[:len(best)-1]}
		}
	}
	for i, t := range txns {
		if t.Committed {
			continue
		}
		in, out, bad := c.deps(i)
		if bad != nil {
			return &Anomaly{Zombie, bad.Txns}
		}
		pred := func(j int) bool { return slices.ContainsFunc(in, func(e edge) bool { return e.to == j }) }
		if p := c.path(i, out, ww|wr|rw|rt, pred); p != nil {
			return &Anomaly{Zombie, p}
		}
	}
	return nil
}

// split returns t's external reads, those no earlier write of its own to
// the key answers, and its last write of each key.
func split(t Txn) (reads []Op, last map[uint64]uint64) {
	last = map[uint64]uint64{}
	for _, op := range t.Ops {
		if op.Write {
			last[op.Key] = op.Value
		} else if _, own := last[op.Key]; !own {
			reads = append(reads, op)
		}
	}
	return reads, last
}

// deps returns attempt i's edges with the committed attempts: in, each
// naming its source, from the versions it read (wr) and wrote after (ww)
// and from those that completed before it started (rt); out to the
// attempts that overwrote a version it read (rw) and that started after
// it completed (rt). A read of a value no committed attempt installed is
// G1a, of one its writer overwrote G1b.
func (c *checker) deps(i int) (in, out []edge, bad *Anomaly) {
	t := c.txns[i]
	rs, last := split(t)
	for _, r := range rs {
		v := version{r.Key, r.Value}
		if w, ok := c.writes[v]; r.Value != 0 {
			switch {
			case !ok:
				return nil, nil, &Anomaly{G1a, []int{-1, i}}
			case !c.txns[w.txn].Committed:
				return nil, nil, &Anomaly{G1a, []int{w.txn, i}}
			case !w.final:
				return nil, nil, &Anomaly{G1b, []int{w.txn, i}}
			}
			in = append(in, edge{w.txn, wr})
			if _, rmw := last[r.Key]; rmw {
				in = append(in, edge{w.txn, ww})
			}
		}
		for _, j := range c.next[v] {
			if j != i {
				out = append(out, edge{j, rw})
			}
		}
	}
	for j, u := range c.txns {
		if u.Committed && u.End < t.Start {
			in = append(in, edge{j, rt})
		} else if u.Committed && t.End < u.Start {
			out = append(out, edge{j, rt})
		}
	}
	return in, out, nil
}

// path is a shortest walk over edges of mask, from one of starts (the
// edges out of from) to a node target accepts, breadth first; it returns
// the walk's nodes, from first to last, from included, or nil.
func (c *checker) path(from int, starts []edge, mask kind, target func(int) bool) []int {
	parent := map[int]int{}
	var queue []int
	visit := func(edges []edge, n int) {
		for _, e := range edges {
			if _, seen := parent[e.to]; !seen && e.kind&mask != 0 {
				parent[e.to] = n
				queue = append(queue, e.to)
			}
		}
	}
	for visit(starts, from); len(queue) > 0; queue = queue[1:] {
		n := queue[0]
		if target(n) {
			p := []int{n}
			for m := parent[n]; m != from; m = parent[m] {
				p = append([]int{m}, p...)
			}
			return append([]int{from}, p...)
		}
		visit(c.adj[n], n)
	}
	return nil
}
