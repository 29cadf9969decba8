// Package bench7 implements an STMBench7-style workload (Guerraoui,
// Kapałka, Vitek, EuroSys 2007) — the paper's flagship benchmark for
// complex, mixed transactional workloads (Figures 2, 7, 9, 12; Table 1).
//
// The data structure follows STMBench7's CAD-inspired design:
//
//	Module → ComplexAssembly tree (fanout^levels) → BaseAssemblies,
//	each referencing composite parts from a shared pool; every
//	CompositePart owns a Document and a connected graph of AtomicParts;
//	red-black tree indexes map ids and build dates to parts.
//
// The operation mix spans four orders of magnitude of transaction length —
// from an index lookup touching a dozen words to a full-structure
// traversal touching every atomic part — and three workload mixes are
// provided, matching the paper: read-dominated (90% read-only), read-write
// (60%) and write-dominated (10%).
//
// Relative to the original (which is "many orders of magnitude larger
// than other STM benchmarks"), the default dimensions are scaled to run
// multi-second experiments on a laptop while preserving the shape: a
// deep shared tree, a fat middle layer of shared composite parts, long
// pointer chases, and index updates that conflict with everything.
package bench7

import (
	"fmt"

	"swisstm/internal/rbtree"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// Config sizes the structure and selects the workload mix.
type Config struct {
	Levels        int // complex-assembly tree height (≥ 2)
	Fanout        int // children per complex assembly
	CompPool      int // composite parts in the shared pool
	AtomicPerComp int // atomic parts per composite part
	ConnPerPart   int // outgoing connections per atomic part (≤ 3)
	DocWords      int // document payload words
	ReadOnlyPct   int // percentage of read-only operations (90/60/10)
}

func (c *Config) fill() {
	if c.Levels == 0 {
		c.Levels = 5
	}
	if c.Fanout == 0 {
		c.Fanout = 3
	}
	if c.CompPool == 0 {
		c.CompPool = 128
	}
	if c.AtomicPerComp == 0 {
		c.AtomicPerComp = 20
	}
	if c.ConnPerPart == 0 {
		c.ConnPerPart = 3
	}
	if c.DocWords == 0 {
		c.DocWords = 16
	}
	if c.ReadOnlyPct == 0 {
		c.ReadOnlyPct = 90
	}
}

// ReadWrite is the paper's read-write STMBench7 mix; the read-dominated
// (90 %) and write-dominated (10 %) mixes set ReadOnlyPct directly.
var ReadWrite = Config{ReadOnlyPct: 60}

// Object field layouts. All objects are blocks of stm.Word fields.
const (
	// AtomicPart: id, x, y, buildDate, conn0..conn{K-1}
	apID uint32 = iota
	apX
	apY
	apDate
	apConn0 // + ConnPerPart fields
)

const (
	// CompositePart: id, buildDate, doc, partsArr (object with
	// AtomicPerComp handle fields), rootPart, usedIn reference count
	// (STMBench7 keeps usedIn lists; a count suffices for unlink).
	cpID uint32 = iota
	cpDate
	cpDoc
	cpParts
	cpRoot
	cpUsed
	cpFields
)

const (
	// BaseAssembly: id, level (=1), comp0..comp{compPerBase-1}.
	// The level field sits at the same offset as in ComplexAssembly so
	// the tree walk can type-discriminate nodes.
	baID uint32 = iota
	baLevel
	baComp0
)

const (
	// ComplexAssembly: id, level, sub0..sub{fanout-1}
	caID uint32 = iota
	caLevel
	caSub0
)

// compPerBase is STMBench7's NumCompPerAssembly.
const compPerBase = 3

// counters object fields: next composite id, next atomic part id, next
// build date.
const (
	cntCompID uint32 = iota
	cntPartID
	cntDate
	cntFields
)

// Bench is a constructed STMBench7 instance bound to one engine.
type Bench struct {
	E       stm.STM
	Cfg     Config
	Module  stm.Handle
	PartIdx *rbtree.Tree // atomic-part id → part handle
	CompIdx *rbtree.Tree // composite-part id → composite handle
	DateIdx *rbtree.Tree // build date → composite handle
	Bases   []stm.Handle // base assemblies (structure is fixed; contents mutate)

	counters    stm.Handle
	initialComp int // id range used by lookup operations
	initialPart int
}

// walkScratch is the reusable graph-walk state: a visited set and a DFS
// stack. Each Ops table owns one (the hot path), and Check builds its
// own; both used to come from a fresh Go map and slice per traversal —
// an allocation plus hash-table growth on every operation, ~a quarter of
// a read-dominated operation's time (DESIGN.md §7).
type walkScratch struct {
	seen  *util.HandleSet
	stack []stm.Handle
}

func newWalkScratch(cfg *Config) walkScratch {
	return walkScratch{
		seen:  util.NewHandleSet(cfg.AtomicPerComp),
		stack: make([]stm.Handle, 0, cfg.AtomicPerComp),
	}
}

// Setup builds the structure single-threadedly on thread id 0.
func Setup(e stm.STM, cfg Config) *Bench {
	cfg.fill()
	b := &Bench{E: e, Cfg: cfg}
	th := e.NewThread(0)
	b.PartIdx = rbtree.New(th)
	b.CompIdx = rbtree.New(th)
	b.DateIdx = rbtree.New(th)
	b.counters = stm.Atomic(th, func(tx stm.Tx) stm.Handle { return tx.NewObject(cntFields) })

	// Composite-part pool. Each composite gets its own transaction to
	// keep setup transactions bounded.
	o := b.NewOps(th, nil)
	comps := make([]stm.Handle, cfg.CompPool)
	for i := range comps {
		comps[i] = stm.Atomic(th, func(tx stm.Tx) stm.Handle { return o.newCompositePart(tx, 0) })
	}
	b.initialComp = cfg.CompPool
	b.initialPart = cfg.CompPool * cfg.AtomicPerComp

	// Assembly tree.
	rng := util.NewRand(0xb7)
	var build func(tx stm.Tx, level int) stm.Handle
	id := 0
	build = func(tx stm.Tx, level int) stm.Handle {
		id++
		if level == 1 { // base assembly
			ba := tx.NewObject(uint32(2 + compPerBase))
			tx.WriteField(ba, baID, stm.Word(id))
			tx.WriteField(ba, baLevel, 1)
			for k := 0; k < compPerBase; k++ {
				c := comps[rng.Intn(len(comps))]
				stm.WriteRef(tx, ba, baComp0+uint32(k), c)
				tx.WriteField(c, cpUsed, tx.ReadField(c, cpUsed)+1)
			}
			b.Bases = append(b.Bases, ba)
			return ba
		}
		ca := tx.NewObject(uint32(2 + cfg.Fanout))
		tx.WriteField(ca, caID, stm.Word(id))
		tx.WriteField(ca, caLevel, stm.Word(level))
		for k := 0; k < cfg.Fanout; k++ {
			stm.WriteRef(tx, ca, caSub0+uint32(k), build(tx, level-1))
		}
		return ca
	}
	stm.AtomicVoid(th, func(tx stm.Tx) {
		root := build(tx, cfg.Levels)
		b.Module = tx.NewObject(2)
		tx.WriteField(b.Module, 0, 1) // module id
		stm.WriteRef(tx, b.Module, 1, root)
	})
	return b
}

// newCompositePart builds a composite part with its document and atomic
// part graph and registers it in all indexes, writing every field. With
// old != 0 it is built in the storage of old, a composite no base
// assembly uses any more: each of old's index entries is deleted and its
// node relinked by the insert that replaces it.
func (o *Ops) newCompositePart(tx stm.Tx, old stm.Handle) stm.Handle {
	b, cfg := o.b, &o.b.Cfg
	compID := tx.ReadField(b.counters, cntCompID) + 1
	tx.WriteField(b.counters, cntCompID, compID)
	date := tx.ReadField(b.counters, cntDate) + 1
	tx.WriteField(b.counters, cntDate, date)

	var doc, partsArr stm.Handle
	if old != 0 {
		doc, partsArr = stm.ReadRef(tx, old, cpDoc), stm.ReadRef(tx, old, cpParts)
	} else {
		doc, partsArr = tx.NewObject(uint32(1+cfg.DocWords)), tx.NewObject(uint32(cfg.AtomicPerComp))
	}
	tx.WriteField(doc, 0, compID)
	for w := 0; w < cfg.DocWords; w++ {
		tx.WriteField(doc, uint32(1+w), stm.Word(w)^stm.Word(compID))
	}

	for i := range o.parts {
		partID := tx.ReadField(b.counters, cntPartID) + 1
		tx.WriteField(b.counters, cntPartID, partID)
		var p, node stm.Handle
		if old != 0 {
			p = stm.ReadRef(tx, partsArr, uint32(i))
			node = b.PartIdx.Delete(tx, tx.ReadField(p, apID))
		} else {
			p = tx.NewObject(uint32(4 + cfg.ConnPerPart))
		}
		tx.WriteField(p, apID, partID)
		tx.WriteField(p, apX, partID*31)
		tx.WriteField(p, apY, partID*17)
		tx.WriteField(p, apDate, date)
		o.parts[i] = p
		stm.WriteRef(tx, partsArr, uint32(i), p)
		b.PartIdx.Insert(tx, partID, stm.Word(p), node)
	}
	// Ring + chords connection graph: part i connects to i+1, i+2, i+3
	// (mod n) — connected, deterministic, degree ConnPerPart.
	n := len(o.parts)
	for i, p := range o.parts {
		for k := 0; k < cfg.ConnPerPart; k++ {
			stm.WriteRef(tx, p, apConn0+uint32(k), o.parts[(i+k+1)%n])
		}
	}

	comp, idNode, dateNode := old, stm.Handle(0), stm.Handle(0)
	if old != 0 {
		idNode = b.CompIdx.Delete(tx, tx.ReadField(old, cpID))
		dateNode = b.DateIdx.Delete(tx, tx.ReadField(old, cpDate))
	} else {
		comp = tx.NewObject(cpFields)
	}
	tx.WriteField(comp, cpID, compID)
	tx.WriteField(comp, cpDate, date)
	stm.WriteRef(tx, comp, cpDoc, doc)
	stm.WriteRef(tx, comp, cpParts, partsArr)
	stm.WriteRef(tx, comp, cpRoot, o.parts[0])
	b.CompIdx.Insert(tx, compID, stm.Word(comp), idNode)
	b.DateIdx.Insert(tx, date, stm.Word(comp), dateNode)
	return comp
}

// ---------- Operations ----------
//
// Read-only: ShortRead, ReadComponent, QueryDates, LongTraversal.
// Updates:   ShortUpdate, UpdateComponent, StructureMod,
//            LongTraversalUpdate.
//
// Operations live on a per-thread Ops table: every transaction body and
// graph visitor is a closure built once at NewOps. The old per-call
// shape — each operation capturing its parameters in a fresh closure —
// was the last remaining allocation per bench7 operation; the table
// passes parameters through fields instead, so the steady-state op loop
// allocates nothing (bench7_test.TestZeroAllocOps holds the read-only
// mixes to exactly zero).

// graphWalk visits every atomic part of a composite reachable from its
// root part (bounded DFS over the connection graph, using the caller's
// scratch), calling visit for each distinct part.
func (b *Bench) graphWalk(tx stm.TxRO, comp stm.Handle, ws *walkScratch, visit func(part stm.Handle)) int {
	root := stm.ReadRef(tx, comp, cpRoot)
	if root == 0 {
		return 0
	}
	ws.seen.Reset()
	ws.seen.Add(uint64(root))
	stack := append(ws.stack[:0], root)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(p)
		for k := 0; k < b.Cfg.ConnPerPart; k++ {
			q := stm.ReadRef(tx, p, apConn0+uint32(k))
			if q != 0 && ws.seen.Add(uint64(q)) {
				stack = append(stack, q)
			}
		}
	}
	ws.stack = stack
	return ws.seen.Len()
}

// randomComposite picks a random live composite part via the id index.
func (b *Bench) randomComposite(tx stm.TxRO, rng *util.Rand) (stm.Handle, bool) {
	for try := 0; try < 4; try++ {
		key := stm.Word(rng.Intn(b.initialComp) + 1)
		if h, ok := b.CompIdx.Lookup(tx, key); ok {
			return stm.Handle(h), true
		}
	}
	return 0, false
}

// assemblyWalk traverses the complex-assembly tree from the module root,
// calling visit for every composite referenced by every base assembly.
// Plain method recursion: the self-referential `var walk func(...)`
// closure it replaced allocated on every traversal.
func (b *Bench) assemblyWalk(tx stm.TxRO, visit func(comp stm.Handle)) {
	b.walkAssembly(tx, stm.ReadRef(tx, b.Module, 1), visit)
}

func (b *Bench) walkAssembly(tx stm.TxRO, h stm.Handle, visit func(comp stm.Handle)) {
	level := tx.ReadField(h, caLevel)
	if level <= 1 { // base assembly (field layout: baID, comps...)
		for k := 0; k < compPerBase; k++ {
			comp := stm.ReadRef(tx, h, baComp0+uint32(k))
			if comp != 0 {
				visit(comp)
			}
		}
		return
	}
	for k := 0; k < b.Cfg.Fanout; k++ {
		sub := stm.ReadRef(tx, h, caSub0+uint32(k))
		if sub != 0 {
			b.walkAssembly(tx, sub, visit)
		}
	}
}

// Ops is a per-thread operation table. Each worker goroutine builds one
// over its engine thread and private RNG and drives Op (or the
// individual operations); Ops is not safe for concurrent use, exactly
// like the Thread it wraps.
//
// Every transaction body and graph visitor is a closure built once at
// NewOps; the read-only operation classes run theirs through AtomicRO.
// Results return as values through the v2 API; parameters still pass
// through fields so the steady-state op loop allocates nothing
// (bench7_test.TestZeroAllocOps holds the read-only mixes to exactly
// zero).
type Ops struct {
	b   *Bench
	th  stm.Thread
	rng *util.Rand
	ws  walkScratch

	// Parameter slots written by the dispatch methods and the
	// current-transaction rebinds; the pre-bound closures read them.
	tx    stm.Tx   // current update transaction (for update visitors)
	rtx   stm.TxRO // current read transaction (for read visitors)
	key   stm.Word // part/composite id of the short ops
	lo    stm.Word // date-window start
	sum   stm.Word
	total int
	base  stm.Handle // structure-mod target slot
	slot  uint32
	parts []stm.Handle // the parts of the composite being built

	shortRead, readComponent, queryDates, longTraversal     func(stm.TxRO) stm.Word
	shortUpdate, updateComponent, longTravUpdate, structMod func(stm.Tx)
	visitSum, visitSwap, visitDate                          func(p stm.Handle)
	visitCompCount, visitCompBump                           func(comp stm.Handle)
}

// NewOps builds the pre-bound operation table for one worker thread.
func (b *Bench) NewOps(th stm.Thread, rng *util.Rand) *Ops {
	o := &Ops{b: b, th: th, rng: rng, ws: newWalkScratch(&b.Cfg),
		parts: make([]stm.Handle, b.Cfg.AtomicPerComp)}

	o.visitSum = func(p stm.Handle) { o.sum += o.rtx.ReadField(p, apX) }
	o.visitSwap = func(p stm.Handle) {
		x := o.tx.ReadField(p, apX)
		y := o.tx.ReadField(p, apY)
		o.tx.WriteField(p, apX, y)
		o.tx.WriteField(p, apY, x)
	}
	o.visitDate = func(p stm.Handle) { _ = o.rtx.ReadField(p, apDate) }
	o.visitCompCount = func(comp stm.Handle) {
		o.total += b.graphWalk(o.rtx, comp, &o.ws, o.visitDate)
	}
	o.visitCompBump = func(comp stm.Handle) {
		o.tx.WriteField(comp, cpDate, o.tx.ReadField(comp, cpDate)+1)
	}

	o.shortRead = func(tx stm.TxRO) stm.Word {
		if h, ok := b.PartIdx.Lookup(tx, o.key); ok {
			p := stm.Handle(h)
			return tx.ReadField(p, apX) + tx.ReadField(p, apY)
		}
		return 0
	}
	o.shortUpdate = func(tx stm.Tx) {
		if h, ok := b.PartIdx.Lookup(tx, o.key); ok {
			p := stm.Handle(h)
			x := tx.ReadField(p, apX)
			y := tx.ReadField(p, apY)
			tx.WriteField(p, apX, y)
			tx.WriteField(p, apY, x)
		}
	}
	o.readComponent = func(tx stm.TxRO) stm.Word {
		o.rtx = tx
		o.sum = 0
		if comp, ok := b.randomComposite(tx, o.rng); ok {
			b.graphWalk(tx, comp, &o.ws, o.visitSum)
		}
		return o.sum
	}
	o.updateComponent = func(tx stm.Tx) {
		o.tx = tx
		if comp, ok := b.randomComposite(tx, o.rng); ok {
			b.graphWalk(tx, comp, &o.ws, o.visitSwap)
		}
	}
	o.queryDates = func(tx stm.TxRO) stm.Word {
		return stm.Word(b.DateIdx.RangeCount(tx, o.lo, o.lo+16))
	}
	o.longTraversal = func(tx stm.TxRO) stm.Word {
		o.rtx = tx
		o.total = 0
		b.assemblyWalk(tx, o.visitCompCount)
		return stm.Word(o.total)
	}
	o.longTravUpdate = func(tx stm.Tx) {
		o.tx = tx
		b.assemblyWalk(tx, o.visitCompBump)
	}
	o.structMod = func(tx stm.Tx) {
		old := stm.ReadRef(tx, o.base, o.slot)
		if old != 0 {
			// Drop one reference. A composite still used by another base
			// assembly stays; the new one replaces the last reference's.
			used := tx.ReadField(old, cpUsed)
			tx.WriteField(old, cpUsed, used-1)
			if used > 1 {
				old = 0
			}
		}
		comp := o.newCompositePart(tx, old)
		tx.WriteField(comp, cpUsed, 1)
		stm.WriteRef(tx, o.base, o.slot, comp)
	}
	return o
}

// ShortRead looks up a random atomic part by id and returns the sum of
// its coordinates (STMBench7 "short operation" class).
func (o *Ops) ShortRead() stm.Word {
	o.key = stm.Word(o.rng.Intn(o.b.initialPart) + 1)
	return stm.AtomicRO(o.th, o.shortRead)
}

// ShortUpdate swaps the coordinates of a random atomic part
// (STMBench7 "short update" class).
func (o *Ops) ShortUpdate() {
	o.key = stm.Word(o.rng.Intn(o.b.initialPart) + 1)
	stm.AtomicVoid(o.th, o.shortUpdate)
}

// ReadComponent walks one composite part's whole atomic-part graph
// read-only and returns the coordinate sum (STMBench7 traversal T1
// restricted to one component).
func (o *Ops) ReadComponent() stm.Word { return stm.AtomicRO(o.th, o.readComponent) }

// UpdateComponent walks one composite part's graph swapping coordinates
// (STMBench7 T2b: long-ish update transaction).
func (o *Ops) UpdateComponent() { stm.AtomicVoid(o.th, o.updateComponent) }

// QueryDates scans the build-date index for a random window and returns
// the match count (STMBench7 query class).
func (o *Ops) QueryDates() stm.Word {
	o.lo = stm.Word(o.rng.Intn(o.b.initialComp) + 1)
	return stm.AtomicRO(o.th, o.queryDates)
}

// LongTraversal is STMBench7's long read-only traversal: the whole
// assembly tree, every composite, every atomic part. It returns the
// number of parts visited.
func (o *Ops) LongTraversal() stm.Word { return stm.AtomicRO(o.th, o.longTraversal) }

// LongTraversalUpdate is the long update traversal: it touches every
// composite part's build date through the whole tree.
func (o *Ops) LongTraversalUpdate() { stm.AtomicVoid(o.th, o.longTravUpdate) }

// StructureMod is STMBench7's structural modification: replace the
// composite in a random base assembly slot by a new one, with its
// document, part graph and index entries, mirroring SM2/SM3. When the
// slot held the old composite's last reference, the old one leaves the
// indexes and the same transaction builds the new one in its storage and
// index nodes, through transactional writes: a reader still holding it
// sees it whole or aborts, and the arena keeps no dead composite.
func (o *Ops) StructureMod() {
	o.base = o.b.Bases[o.rng.Intn(len(o.b.Bases))]
	o.slot = baComp0 + uint32(o.rng.Intn(compPerBase))
	stm.AtomicVoid(o.th, o.structMod)
}

// Op dispatches one operation according to the workload mix; this is the
// function the throughput harness drives.
func (o *Ops) Op() {
	readOnly := o.rng.Intn(100) < o.b.Cfg.ReadOnlyPct
	roll := o.rng.Intn(100)
	if readOnly {
		switch {
		case roll < 40:
			o.ShortRead()
		case roll < 80:
			o.ReadComponent()
		case roll < 95:
			o.QueryDates()
		default:
			o.LongTraversal()
		}
		return
	}
	switch {
	case roll < 40:
		o.ShortUpdate()
	case roll < 80:
		o.UpdateComponent()
	case roll < 95:
		o.StructureMod()
	default:
		o.LongTraversalUpdate()
	}
}

// Check validates the structural invariants after a run: the three
// indexes are red-black trees (it panics when one is not), every id and
// part index entry names an object whose id is its key, every base
// assembly slot references a composite registered in the id index whose
// used count is the number of slots referencing it, every composite's
// graph has exactly AtomicPerComp reachable parts, and each part is
// present in the part index.
func (b *Bench) Check() error {
	th := b.E.NewThread(stm.MaxThreads - 1)
	ws := newWalkScratch(&b.Cfg)
	return stm.AtomicRO(th, func(tx stm.TxRO) error {
		if err := b.checkIndexes(tx); err != nil {
			return err
		}
		slots := map[stm.Handle]stm.Word{}
		for _, base := range b.Bases {
			for k := 0; k < compPerBase; k++ {
				comp := stm.ReadRef(tx, base, baComp0+uint32(k))
				if comp == 0 {
					return fmt.Errorf("bench7: empty base-assembly slot")
				}
				slots[comp]++
				id := tx.ReadField(comp, cpID)
				if got, ok := b.CompIdx.Lookup(tx, id); !ok || stm.Handle(got) != comp {
					return fmt.Errorf("bench7: composite %d missing from index", id)
				}
				var err error
				n := b.graphWalk(tx, comp, &ws, func(p stm.Handle) {
					pid := tx.ReadField(p, apID)
					if got, ok := b.PartIdx.Lookup(tx, pid); !ok || stm.Handle(got) != p {
						err = fmt.Errorf("bench7: part %d missing from index", pid)
					}
				})
				if err != nil {
					return err
				}
				if n != b.Cfg.AtomicPerComp {
					return fmt.Errorf("bench7: composite %d graph has %d parts, want %d",
						id, n, b.Cfg.AtomicPerComp)
				}
			}
		}
		for comp, n := range slots {
			if used := tx.ReadField(comp, cpUsed); used != n {
				return fmt.Errorf("bench7: composite %d is in %d slots, used count %d",
					tx.ReadField(comp, cpID), n, used)
			}
		}
		return nil
	})
}

// checkIndexes is Check's index part. DateIdx's keys are not compared
// with dates: a long update traversal moves composites' dates and leaves
// the index be.
func (b *Bench) checkIndexes(tx stm.TxRO) (err error) {
	b.DateIdx.CheckInvariants(tx)
	for _, idx := range []*rbtree.Tree{b.CompIdx, b.PartIdx} {
		idx.CheckInvariants(tx)
		idx.Visit(tx, func(k, v stm.Word) {
			// cpID and apID are both field 0.
			if id := tx.ReadField(stm.Handle(v), cpID); id != k && err == nil {
				err = fmt.Errorf("bench7: index entry %d names an object of id %d", k, id)
			}
		})
	}
	return err
}
