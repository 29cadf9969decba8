// YCSB-style workload generation over the store: named read/update
// operation mixes with uniform or zipfian key popularity, plus the two
// cross-engine correctness oracles — the total-balance invariant under
// multi-key transfers and the per-key last-write check under updates.
package txkv

import (
	"fmt"
	"slices"

	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// Mix is one operation mix in percent of issued operations; the
// percentages must sum to 100 (Valid checks).
type Mix struct {
	Name        string
	ReadPct     int // point Get
	UpdatePct   int // blind Put of a fresh value
	CASPct      int // optimistic read-then-CAS (two transactions)
	TransferPct int // multi-key balance transfer
	ScanPct     int // one-shard aggregate sum (long read-only transaction)
	// TransferKeys is the number of distinct keys per transfer (≥ 2;
	// defaulted to 4 when a transfer share is configured).
	TransferKeys int
}

// The named mixes. ReadHeavy and UpdateHeavy are the YCSB B and A
// analogues (with a small scan/CAS share to exercise the long-reader
// and conditional-write classes); ReadOnly is YCSB C; TransferMix is
// the multi-key atomic-transaction mix whose total balance the
// invariant checks pin down.
var (
	ReadOnly    = Mix{Name: "read-only", ReadPct: 100}
	ReadHeavy   = Mix{Name: "read-heavy", ReadPct: 93, UpdatePct: 5, ScanPct: 2}
	UpdateHeavy = Mix{Name: "update-heavy", ReadPct: 48, UpdatePct: 42, CASPct: 10}
	TransferMix = Mix{Name: "transfer", ReadPct: 78, TransferPct: 20, ScanPct: 2, TransferKeys: 4}
)

// Mixes lists the named mixes in driver/experiment order.
var Mixes = []Mix{ReadHeavy, UpdateHeavy, TransferMix, ReadOnly}

// MixByName resolves a named mix.
func MixByName(name string) (Mix, bool) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// Valid reports whether the mix percentages are sane.
func (m Mix) Valid() error {
	total := m.ReadPct + m.UpdatePct + m.CASPct + m.TransferPct + m.ScanPct
	if total != 100 {
		return fmt.Errorf("txkv: mix %q percentages sum to %d, want 100", m.Name, total)
	}
	if m.TransferPct > 0 && m.TransferKeys == 1 {
		return fmt.Errorf("txkv: mix %q transfers need ≥ 2 keys", m.Name)
	}
	return nil
}

// MixOp is one operation class of a mix.
type MixOp int

const (
	MixRead MixOp = iota
	MixUpdate
	MixCAS
	MixTransfer
	MixScan
)

// Pick draws the next operation's class: one Intn(100) against the five
// percent bands. The in-process generator and the wire load generator
// both draw here, so a seed names one op stream on either side.
func (m Mix) Pick(r *util.Rand) MixOp {
	switch x := r.Intn(100); {
	case x < m.ReadPct:
		return MixRead
	case x < m.ReadPct+m.UpdatePct:
		return MixUpdate
	case x < m.ReadPct+m.UpdatePct+m.CASPct:
		return MixCAS
	case x < m.ReadPct+m.UpdatePct+m.CASPct+m.TransferPct:
		return MixTransfer
	default:
		return MixScan
	}
}

// DistinctKeys appends TransferKeys distinct keys of 1..dist.N() to
// keys[:0] (zipfian draws repeat often; resample duplicates).
func (m Mix) DistinctKeys(keys []stm.Word, dist util.Dist, r *util.Rand) []stm.Word {
	keys = keys[:0]
	for len(keys) < m.TransferKeys {
		if c := stm.Word(dist.Next(r) + 1); !slices.Contains(keys, c) {
			keys = append(keys, c)
		}
	}
	return keys
}

// DefaultBalance is the per-key starting value; with transfers moving
// one unit among TransferKeys keys it leaves ample headroom before a
// source key runs dry (insufficient-balance transfers commit as
// no-ops, preserving the invariant either way).
const DefaultBalance stm.Word = 1000

// GenConfig parameterizes one generator instance.
type GenConfig struct {
	Mix Mix
	// Keys is the key population; the store is pre-filled with keys
	// 1..Keys. Default 1024.
	Keys int
	// Zipf is the zipfian skew θ in (0, 1); 0 selects uniform key
	// choice.
	Zipf float64
	// Balance is the per-key starting value (default DefaultBalance).
	Balance stm.Word
	// Store overrides the store dimensions (default ConfigForKeys(Keys)).
	Store Config
}

func (c *GenConfig) fill() error {
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.Keys < 0 {
		return fmt.Errorf("txkv: negative key population %d", c.Keys)
	}
	if c.Balance == 0 {
		c.Balance = DefaultBalance
	}
	if c.Store == (Config{}) {
		c.Store = ConfigForKeys(c.Keys)
	}
	if c.Mix.TransferPct > 0 && c.Mix.TransferKeys == 0 {
		c.Mix.TransferKeys = 4
	}
	if c.Mix.TransferPct > 0 && c.Mix.TransferKeys >= c.Keys {
		return fmt.Errorf("txkv: %d transfer keys need a key population above %d, have %d", c.Mix.TransferKeys, c.Mix.TransferKeys, c.Keys)
	}
	return c.Mix.Valid()
}

// Gen binds a mix to one store instance and produces the harness
// workload driving it. A Gen carries per-run oracle state (per-worker
// last committed writes), so build a fresh one per measured run — the
// harness mk(seed) contract does exactly that.
type Gen struct {
	cfg   GenConfig
	dist  util.Dist
	store *Store
	// lastWrite[w] maps key → the last value worker w committed to it.
	// Written only by worker w during the run, read single-threaded by
	// Check after the workers join.
	lastWrite []map[stm.Word]stm.Word
	seq       []uint64     // per-worker write sequence numbers
	tkeys     [][]stm.Word // per-worker transfer key scratch buffers
}

// NewGen builds a generator; it panics on invalid configuration (the
// configs in this repository are static).
func NewGen(cfg GenConfig) *Gen {
	if err := cfg.fill(); err != nil {
		panic(err)
	}
	g := &Gen{
		cfg:       cfg,
		lastWrite: make([]map[stm.Word]stm.Word, stm.MaxThreads),
		seq:       make([]uint64, stm.MaxThreads),
		tkeys:     make([][]stm.Word, stm.MaxThreads),
	}
	if cfg.Zipf > 0 {
		g.dist = util.NewZipf(cfg.Keys, cfg.Zipf)
	} else {
		g.dist = util.NewUniform(cfg.Keys)
	}
	for w := range g.lastWrite {
		g.lastWrite[w] = map[stm.Word]stm.Word{}
		if cfg.Mix.TransferPct > 0 {
			g.tkeys[w] = make([]stm.Word, 0, cfg.Mix.TransferKeys)
		}
	}
	return g
}

// Store returns the bound store (nil before Setup ran).
func (g *Gen) Store() *Store { return g.store }

// Workload adapts the generator to the harness contract.
func (g *Gen) Workload() harness.Workload {
	return harness.Workload{
		Setup: g.Setup,
		BindOp: func(th stm.Thread, worker int, rng *util.Rand) func() {
			return func() { g.Op(th, worker, rng) }
		},
		Check: g.Check,
	}
}

// Setup builds the store on e and pre-fills keys 1..Keys with the
// starting balance, in bounded-size transactions.
func (g *Gen) Setup(e stm.STM) error {
	th := e.NewThread(0)
	g.store = New(th, g.cfg.Store)
	const chunk = 256
	for base := 1; base <= g.cfg.Keys; base += chunk {
		end := base + chunk
		if end > g.cfg.Keys+1 {
			end = g.cfg.Keys + 1
		}
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for k := base; k < end; k++ {
				g.store.Put(tx, stm.Word(k), g.cfg.Balance)
			}
		})
	}
	return nil
}

// key draws one key from the configured popularity distribution.
func (g *Gen) key(rng *util.Rand) stm.Word {
	return stm.Word(g.dist.Next(rng) + 1)
}

// nextVal mints worker w's next globally unique write value:
// (w+1) << 40 | seq. Uniqueness is what makes the last-write check
// sound, and the encoding keeps written values disjoint from starting
// balances.
func (g *Gen) nextVal(worker int) stm.Word {
	g.seq[worker]++
	return stm.Word(worker+1)<<40 | stm.Word(g.seq[worker])
}

// Op issues one operation on the worker's thread — the harness
// throughput unit.
func (g *Gen) Op(th stm.Thread, worker int, rng *util.Rand) {
	switch g.cfg.Mix.Pick(rng) {
	case MixRead:
		key := g.key(rng)
		g.get(th, key)
	case MixUpdate:
		key := g.key(rng)
		val := g.nextVal(worker)
		stm.Atomic(th, func(tx stm.Tx) bool { return g.store.Put(tx, key, val) })
		g.lastWrite[worker][key] = val
	case MixCAS:
		// Optimistic client pattern: read in one transaction, then
		// conditionally swap in a second. The CAS observes failures
		// when another worker slipped a write in between.
		key := g.key(rng)
		cur, ok := g.get(th, key)
		if !ok {
			return
		}
		val := g.nextVal(worker)
		swapped := stm.Atomic(th, func(tx stm.Tx) bool { return g.store.CAS(tx, key, cur, val) })
		if swapped {
			g.lastWrite[worker][key] = val
		}
	case MixTransfer:
		keys := g.cfg.Mix.DistinctKeys(g.tkeys[worker], g.dist, rng)
		g.tkeys[worker] = keys
		stm.Atomic(th, func(tx stm.Tx) bool { return g.store.Transfer(tx, keys, 1) })
	case MixScan:
		shard := rng.Intn(g.store.Shards())
		g.scan(th, shard)
	}
}

// getResult carries a point read's outcome out of its transaction as one
// value (the v2 API returns results instead of closure captures).
type getResult struct {
	val stm.Word
	ok  bool
}

// get issues one point read, declared read-only.
func (g *Gen) get(th stm.Thread, key stm.Word) (stm.Word, bool) {
	r := stm.AtomicRO(th, func(tx stm.TxRO) getResult {
		v, ok := g.store.Get(tx, key)
		return getResult{v, ok}
	})
	return r.val, r.ok
}

// scan issues one shard-aggregate read, declared read-only.
func (g *Gen) scan(th stm.Thread, shard int) stm.Word {
	return stm.AtomicRO(th, func(tx stm.TxRO) stm.Word { return g.store.SumShard(tx, shard) })
}

// Check validates the post-run state against the mix's oracles:
//
//   - Population: no mix deletes, so exactly keys 1..Keys must be
//     present.
//   - Balance invariant (pure transfer mixes): transfers conserve the
//     sum of all values, so it must still equal Keys × Balance.
//   - Last-write check (update mixes without transfers): each key's
//     final value must be the starting balance or some worker's last
//     committed write to it. The globally last write to a key is, for
//     whichever worker issued it, also that worker's last write — so
//     the per-worker last-write sets form a sound candidate set.
func (g *Gen) Check(e stm.STM) error {
	th := e.NewThread(0)
	final := stm.AtomicRO(th, func(tx stm.TxRO) map[stm.Word]stm.Word {
		m := make(map[stm.Word]stm.Word, g.cfg.Keys)
		g.store.ForEach(tx, func(k, v stm.Word) bool { m[k] = v; return true })
		return m
	})
	if len(final) != g.cfg.Keys {
		return fmt.Errorf("txkv: %d keys after run, want %d", len(final), g.cfg.Keys)
	}
	for k := 1; k <= g.cfg.Keys; k++ {
		if _, ok := final[stm.Word(k)]; !ok {
			return fmt.Errorf("txkv: key %d lost", k)
		}
	}
	m := g.cfg.Mix
	if m.TransferPct > 0 && m.UpdatePct == 0 && m.CASPct == 0 {
		want := stm.Word(g.cfg.Keys) * g.cfg.Balance
		var sum stm.Word
		for _, v := range final {
			sum += v
		}
		if sum != want {
			return fmt.Errorf("txkv: balance invariant broken: total %d, want %d", sum, want)
		}
	}
	if (m.UpdatePct > 0 || m.CASPct > 0) && m.TransferPct == 0 {
		for k, v := range final {
			if v == g.cfg.Balance {
				continue // never overwritten
			}
			found := false
			for w := range g.lastWrite {
				if g.lastWrite[w][k] == v {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("txkv: key %d holds %#x, which no worker last wrote", k, v)
			}
		}
	}
	return nil
}
