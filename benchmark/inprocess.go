package main

import (
	"fmt"
	"sync"
)

// The two in-process workloads: bench7-rw and kv-hot-transfer.

// ---------------------------------------------------------------------------
// bench7-rw

// Arena provisioning for bench7. The structure modifications bump-allocate
// and never free, so the arena has to hold the whole epoch: the default
// 4M words last about 8 s of this mix. The constants are measured (see
// README.md); the arena is sized to twice what they predict.
const bench7SetupWords = 41000 // bench7.Setup allocates 40 934 words

// bench7WordsPerOp is what one operation of the 60 % read-only mix
// allocates: 19.1–20.9 words on the engines that lock at encounter time,
// 35 on TL2, which locks at commit, so that an aborted structure
// modification has already allocated its composite. (RSTM has no arena.)
var bench7WordsPerOp = map[string]int{"swisstm": 20, "tinystm": 20, "tl2": 36}

func bench7ArenaWords(kind string, totalOps int) int {
	return 2 * (bench7SetupWords + totalOps*bench7WordsPerOp[kind])
}

type bench7Inst struct {
	e   engine
	b   *bench7Bench
	ths []thread
	ops []*bench7Ops
	pos []int // operations run so far: the next request id
}

func buildBench7(c buildCtx) (instance, error) {
	in := &bench7Inst{ths: make([]thread, c.callers), ops: make([]*bench7Ops, c.callers), pos: make([]int, c.callers)}
	err := guard("bench7 set-up", func() error {
		in.e = newEngine(c.kind, bench7ArenaWords(c.kind, c.perCal*c.callers))
		in.b = bench7Setup(in.e)
		for i := range in.ths {
			in.ths[i] = in.e.NewThread(i + 1)
			in.ops[i] = bench7NewOps(in.b, in.ths[i], c.callerSeed(i))
		}
		return nil
	})
	return in, err
}

func (in *bench7Inst) run(n int, trs []*tracer) (int, error) {
	return runCallers(len(in.ops), func(c int) (int, error) {
		ops, tr, base := in.ops[c], trs[c], in.pos[c]
		for i := 0; i < n; i++ {
			if tr.sampled(base + i) {
				root := tr.begin(spanOp, -1, uint32(base+i))
				s := tr.begin(spanBench7Op, root, uint32(base+i))
				ops.Op()
				tr.finish(s)
				tr.finish(root)
				continue
			}
			ops.Op()
		}
		in.pos[c] = base + n
		return 0, nil
	})
}

func (in *bench7Inst) check() error {
	if err := guard("bench7 check", in.b.Check); err != nil {
		return err
	}
	return arenaGuard(in.e)
}

// arenaGuard fails when an epoch used more than three quarters of its
// arena: the provisioning constants promise half, so the workload
// allocates more per operation than they say and the next, longer run
// would exhaust it.
func arenaGuard(e engine) error {
	a := e.Arena()
	if a == nil { // object-based engine: no arena
		return nil
	}
	return arenaWithin(a.Used(), a.Cap())
}

func arenaWithin(used, capw int) error {
	if used > capw/4*3 {
		return fmt.Errorf("arena guard: %d of %d words used after one epoch (provisioned for half); raise the words-per-operation constant", used, capw)
	}
	return nil
}

func arenaUsed(e engine) uint64 {
	if a := e.Arena(); a != nil {
		return uint64(a.Used())
	}
	return 0
}

func (in *bench7Inst) counts() (counters, error) {
	var c counters
	for _, th := range in.ths {
		c.eng = mapEngine(c.eng, th.Stats(), plus)
	}
	c.arenaUsed = arenaUsed(in.e)
	return c, nil
}

func (in *bench7Inst) close() error { return nil }

// ---------------------------------------------------------------------------
// kv-hot-transfer

const (
	transferPop = 1024
	// transferBalance is large enough that no hot key can run dry within
	// an epoch: a transfer that finds its source short commits as a no-op,
	// which is different work and would count as failed.
	transferBalance word = 1 << 32
	transferArena        = 1 << 14 // twice the 8 193 words of a 1024-key store
	hotZipf              = 0.99
)

// transferCaller is one caller's pre-bound state: the transaction body
// is a closure built once, reading its parameters from fields, so the
// benchmark's own loop allocates nothing per operation.
type transferCaller struct {
	th    thread
	store *kvStore
	ring  []word // transferKeys keys per operation
	pos   int
	done  int // operations run so far: the next request id
	cur   []word
	body  func(tx) bool

	tr     *tracer
	parent int32
	req    uint32
	traced func(tx) bool
}

func newTransferCaller(th thread, store *kvStore, ring []word) *transferCaller {
	c := &transferCaller{th: th, store: store, ring: ring}
	c.body = func(t tx) bool { return c.store.Transfer(t, c.cur, 1) }
	c.traced = func(t tx) bool {
		// Deferred: an attempt that aborts mid-body unwinds through here.
		defer c.tr.finish(c.tr.begin(spanTransfer, c.parent, c.req))
		return c.store.Transfer(t, c.cur, 1)
	}
	return c
}

// run performs the caller's next n transfers.
func (c *transferCaller) run(n int, tr *tracer) (failed int) {
	c.tr = tr
	base := c.done
	c.done += n
	for i := 0; i < n; i++ {
		c.cur = c.ring[c.pos : c.pos+transferKeys]
		if c.pos += transferKeys; c.pos == len(c.ring) {
			c.pos = 0
		}
		var ok bool
		if tr.sampled(base + i) {
			c.req = uint32(base + i)
			root := tr.begin(spanOp, -1, c.req)
			c.parent = tr.begin(spanAtomic, root, c.req)
			ok = atomicBool(c.th, c.traced)
			tr.finish(c.parent)
			tr.finish(root)
		} else {
			ok = atomicBool(c.th, c.body)
		}
		if !ok {
			failed++
		}
	}
	return failed
}

type transferInst struct {
	e       engine
	store   *kvStore
	setupTh thread
	cs      []*transferCaller
}

// transferZipf is built once: the math.Pow calls of a zipfian CDF are
// input generation, not set-up of the system under test.
var transferZipf = sync.OnceValue(func() *zipf { return newZipf(transferPop, hotZipf) })

func transferInputs(c buildCtx) (in inputs) {
	in.transfers = make([][]word, c.callers)
	for i := range in.transfers {
		in.transfers[i] = genTransfers(c.callerSeed(i), transferZipf(), min(c.perCal, ringLen))
	}
	return in
}

func buildTransfer(c buildCtx) (instance, error) {
	in := &transferInst{cs: make([]*transferCaller, c.callers)}
	err := guard("txkv set-up", func() error {
		in.e = newEngine(c.kind, transferArena)
		in.setupTh = in.e.NewThread(0)
		in.store = kvNewInitialized(in.setupTh, transferPop, transferBalance)
		for i := range in.cs {
			in.cs[i] = newTransferCaller(in.e.NewThread(i+1), in.store, c.in.transfers[i])
		}
		return nil
	})
	return in, err
}

func (in *transferInst) run(n int, trs []*tracer) (int, error) {
	return runCallers(len(in.cs), func(c int) (int, error) {
		return in.cs[c].run(n, trs[c]), nil
	})
}

func (in *transferInst) check() error {
	return guard("txkv check", func() error {
		want := word(transferPop) * transferBalance
		if sum := atomicROWord(in.setupTh, in.store.SumAll); sum != want {
			return fmt.Errorf("balance not conserved: total %d, want %d", sum, want)
		}
		n := atomicROWord(in.setupTh, func(t txRO) word { return word(in.store.Len(t)) })
		if n != transferPop {
			return fmt.Errorf("key population changed: %d keys, want %d", n, transferPop)
		}
		return arenaGuard(in.e)
	})
}

func (in *transferInst) counts() (counters, error) {
	var c counters
	for _, tc := range in.cs {
		c.eng = mapEngine(c.eng, tc.th.Stats(), plus)
	}
	c.arenaUsed = arenaUsed(in.e)
	return c, nil
}

func (in *transferInst) close() error { return nil }
