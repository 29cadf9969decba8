// Package genome re-implements STAMP's genome: gene sequencing by
// (1) deduplicating DNA segments into a transactional hash set,
// (2) matching segment overlaps to link each segment to its successor,
// and (3) rebuilding the gene and comparing it with the original.
// Phases 1 and 2 are the transactional phases; their access pattern —
// hash-table inserts, then claim-flag updates — follows the original.
package genome

import (
	"fmt"
	"sync/atomic"

	"swisstm/internal/stamp/tmds"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// Segment object fields.
const (
	sgCode    uint32 = iota // encoded nucleotide string
	sgNext                  // handle of successor segment (0 = none yet)
	sgClaimed               // 1 when some predecessor claimed this segment
	sgFields
)

// App is one genome instance.
type App struct {
	geneLen int
	segLen  int

	gene     []byte // 0..3 nucleotides
	segCodes []stm.Word

	segSet    *tmds.Map // segment code → segment object handle
	prefixMap *tmds.Map // (segLen-1)-prefix code → segment handle
	segList   *tmds.List
	cursor1   atomic.Uint64 // phase-1 work cursor
	cursor2   atomic.Uint64 // phase-2 work cursor
	phase1    atomic.Int64  // workers still in phase 1
	threads   int
}

// New creates a genome workload.
func New(big bool) *App {
	a := &App{segLen: 16}
	if big {
		a.geneLen = 8192
	} else {
		a.geneLen = 1024
	}
	return a
}

// Name implements stamp.App.
func (a *App) Name() string { return "genome" }

// Bind implements stamp.App.
func (a *App) Bind(threads int) {
	a.threads = threads
	a.phase1.Store(int64(threads))
}

// encode packs gene[i:i+n] into one word (2 bits per nucleotide, n ≤ 31);
// a leading 1 bit keeps distinct lengths from colliding.
func encode(gene []byte, i, n int) stm.Word {
	v := stm.Word(1)
	for k := 0; k < n; k++ {
		v = v<<2 | stm.Word(gene[i+k])
	}
	return v
}

// Setup implements stamp.App: generate a gene whose (segLen-1)-grams are
// unique so that overlap matching reconstructs it exactly.
func (a *App) Setup(e stm.STM) error {
	rng := util.NewRand(0x9e0e)
	for attempt := 0; ; attempt++ {
		a.gene = make([]byte, a.geneLen)
		for i := range a.gene {
			a.gene[i] = byte(rng.Next() & 3)
		}
		grams := make(map[stm.Word]bool, a.geneLen)
		unique := true
		for i := 0; i+a.segLen-1 <= a.geneLen && unique; i++ {
			g := encode(a.gene, i, a.segLen-1)
			if grams[g] {
				unique = false
			}
			grams[g] = true
		}
		if unique {
			break
		}
		if attempt > 20 {
			return fmt.Errorf("genome: cannot generate collision-free gene")
		}
	}
	n := a.geneLen - a.segLen + 1
	a.segCodes = make([]stm.Word, n)
	for i := 0; i < n; i++ {
		a.segCodes[i] = encode(a.gene, i, a.segLen)
	}
	// Shuffle the segments: the sequencer must not rely on input order.
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		a.segCodes[i], a.segCodes[j] = a.segCodes[j], a.segCodes[i]
	}
	th := e.NewThread(0)
	stm.AtomicVoid(th, func(tx stm.Tx) {
		a.segSet = tmds.NewMap(tx, 1024)
		a.prefixMap = tmds.NewMap(tx, 1024)
		a.segList = tmds.NewList(tx)
	})
	return nil
}

func prefixOf(code stm.Word, segLen int) stm.Word {
	// Drop the last nucleotide, keeping the leading marker bit.
	return code >> 2
}

func suffixOf(code stm.Word, segLen int) stm.Word {
	// Drop the first nucleotide: clear down to 2*(segLen-1) payload bits,
	// then re-add the marker.
	payloadBits := uint(2 * (segLen - 1))
	mask := (stm.Word(1) << payloadBits) - 1
	return code&mask | 1<<payloadBits
}

// Work implements stamp.App.
func (a *App) Work(e stm.STM, th stm.Thread, worker, threads int, rng *util.Rand) {
	// Phase 1: segment deduplication. One transaction per segment: insert
	// into the segment set and the prefix index.
	for {
		i := a.cursor1.Add(1) - 1
		if i >= uint64(len(a.segCodes)) {
			break
		}
		code := a.segCodes[i]
		stm.AtomicVoid(th, func(tx stm.Tx) {
			if _, dup := a.segSet.Get(tx, code); dup {
				return
			}
			seg := tx.NewObject(sgFields)
			tx.WriteField(seg, sgCode, code)
			a.segSet.Put(tx, code, stm.Word(seg))
			a.prefixMap.Put(tx, prefixOf(code, a.segLen), stm.Word(seg))
			a.segList.Push(tx, stm.Word(seg))
		})
	}
	// All workers must finish phase 1 before matching begins.
	if a.phase1.Add(-1) > 0 {
		for a.phase1.Load() > 0 {
			util.SpinIterations(64)
		}
	}
	// Phase 2: overlap matching. For each unique segment, find the
	// segment whose (segLen-1)-prefix equals our suffix and claim it.
	for {
		i := a.cursor2.Add(1) - 1
		if i >= uint64(len(a.segCodes)) {
			break
		}
		code := a.segCodes[i]
		stm.AtomicVoid(th, func(tx stm.Tx) {
			segW, ok := a.segSet.Get(tx, code)
			if !ok {
				return
			}
			seg := stm.Handle(segW)
			if tx.ReadField(seg, sgNext) != 0 {
				return // a duplicate of this segment already matched
			}
			succW, ok := a.prefixMap.Get(tx, suffixOf(code, a.segLen))
			if !ok {
				return // the gene's last segment has no successor
			}
			succ := stm.Handle(succW)
			if succ == seg {
				return
			}
			if tx.ReadField(succ, sgClaimed) != 0 {
				return // already claimed by its (unique) predecessor
			}
			tx.WriteField(succ, sgClaimed, 1)
			tx.WriteField(seg, sgNext, succW)
		})
	}
}

// Check implements stamp.App: phase 3 (sequential reassembly) must
// reproduce the original gene exactly.
func (a *App) Check(e stm.STM) error {
	th := e.NewThread(stm.MaxThreads - 1)
	rebuilt, err := stm.AtomicErr(th, func(tx stm.Tx) ([]byte, error) {
		// The start segment is the unique unclaimed one.
		start := stm.Handle(0)
		starts := 0
		a.segList.Visit(tx, func(v stm.Word) {
			if tx.ReadField(stm.Handle(v), sgClaimed) == 0 {
				start = stm.Handle(v)
				starts++
			}
		})
		if starts != 1 {
			return nil, fmt.Errorf("genome: %d chain heads, want 1", starts)
		}
		// Decode the first segment fully, then one nucleotide per link.
		out := make([]byte, 0, len(a.gene))
		code := tx.ReadField(start, sgCode)
		for k := a.segLen - 1; k >= 0; k-- {
			out = append(out, byte(code>>(2*uint(k))&3))
		}
		n := start
		for {
			nx := stm.ReadRef(tx, n, sgNext)
			if nx == 0 {
				break
			}
			out = append(out, byte(tx.ReadField(nx, sgCode)&3))
			n = nx
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	if len(rebuilt) != len(a.gene) {
		return fmt.Errorf("genome: rebuilt %d nucleotides, want %d", len(rebuilt), len(a.gene))
	}
	for i := range rebuilt {
		if rebuilt[i] != a.gene[i] {
			return fmt.Errorf("genome: mismatch at %d", i)
		}
	}
	return nil
}
