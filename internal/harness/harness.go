// Package harness measures: it constructs engines from declarative
// specs, runs one fixed-time or fixed-ops (throughput) or fixed-work
// (makespan) point with its seeded repeats, folds the workers' commit and
// abort statistics, and bridges each run into a results.Record. What the
// points are and how they are drawn is internal/experiments'.
package harness

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"swisstm/internal/cm"
	"swisstm/internal/obs"
	"swisstm/internal/results"
	"swisstm/internal/rstm"
	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
	"swisstm/internal/util"
)

// EngineSpec declaratively describes an engine configuration; it is the
// unit the experiment drivers sweep over.
type EngineSpec struct {
	// Kind is one of Kinds.
	Kind string
	// Label overrides the display name (defaults to the engine name).
	Label string
	// ArenaWords sizes the word arena (word-based engines).
	ArenaWords int
	// StripeWords sets the lock granularity in words (word-based
	// engines); 0 selects the engines' 4-word default.
	StripeWords int
	// Policy is SwissTM's CM: "twophase" (default), "greedy", "timid".
	Policy string
	// NoBackoff disables SwissTM's post-abort back-off.
	NoBackoff bool
	// Acquire is RSTM's mode: "eager" (default) or "lazy".
	Acquire string
	// Reads is RSTM's read mode: "invisible" (default) or "visible".
	Reads string
	// Manager is RSTM's CM: "polka" (default), "greedy", "serializer",
	// "timid".
	Manager string
	// TxnObs, when non-nil, turns on the engines' per-transaction
	// telemetry (retry/read-set/write-set histograms, DESIGN.md §11);
	// the caller keeps the pointer to scrape it. Specs are copied by
	// value, so give each engine instance its own TxnObs.
	TxnObs *obs.TxnObs
}

// Kinds are the engine kinds EngineSpec.New builds.
var Kinds = []string{"swisstm", "tl2", "tinystm", "rstm"}

// ParseKinds turns a comma-separated list of kinds from a flag or a config
// file into specs (manager is RSTM's CM); an unknown kind is a usage error.
func ParseKinds(list, manager string) ([]EngineSpec, error) {
	var specs []EngineSpec
	for _, kind := range strings.Split(list, ",") {
		if kind = strings.TrimSpace(kind); !slices.Contains(Kinds, kind) {
			return nil, fmt.Errorf("unknown engine kind %q (want %s)", kind, strings.Join(Kinds, ", "))
		}
		specs = append(specs, EngineSpec{Kind: kind, Manager: manager})
	}
	return specs, nil
}

// DisplayName returns the label used in tables.
func (s EngineSpec) DisplayName() string {
	if s.Label != "" {
		return s.Label
	}
	switch s.Kind {
	case "swisstm":
		if s.Policy != "" && s.Policy != "twophase" {
			return "SwissTM(" + s.Policy + ")"
		}
		return "SwissTM"
	case "tl2":
		return "TL2"
	case "tinystm":
		return "TinySTM"
	case "rstm":
		parts := []string{}
		if s.Acquire != "" {
			parts = append(parts, s.Acquire)
		}
		if s.Reads != "" {
			parts = append(parts, s.Reads)
		}
		if s.Manager != "" {
			parts = append(parts, s.Manager)
		}
		if len(parts) == 0 {
			return "RSTM"
		}
		return "RSTM(" + strings.Join(parts, "/") + ")"
	}
	return s.Kind
}

// tableBits sizes the word-based engines' lock tables at 2^18 entries.
const tableBits = 18

// New builds a fresh engine for the spec.
func (s EngineSpec) New() stm.STM {
	arena := s.ArenaWords
	if arena == 0 {
		arena = 1 << 22
	}
	switch s.Kind {
	case "swisstm":
		pol := swisstm.TwoPhase
		switch s.Policy {
		case "greedy":
			pol = swisstm.Greedy
		case "timid":
			pol = swisstm.Timid
		}
		return swisstm.New(swisstm.Config{
			ArenaWords:  arena,
			StripeWords: s.StripeWords,
			TableBits:   tableBits,
			Policy:      pol,
			NoBackoff:   s.NoBackoff,
			Obs:         s.TxnObs,
		})
	case "tl2":
		return tl2.New(tl2.Config{
			ArenaWords:  arena,
			StripeWords: s.StripeWords,
			TableBits:   tableBits,
			Obs:         s.TxnObs,
		})
	case "tinystm":
		return tinystm.New(tinystm.Config{
			ArenaWords:  arena,
			StripeWords: s.StripeWords,
			TableBits:   tableBits,
			Obs:         s.TxnObs,
		})
	case "rstm":
		acq := rstm.Eager
		if s.Acquire == "lazy" {
			acq = rstm.Lazy
		}
		rd := rstm.Invisible
		if s.Reads == "visible" {
			rd = rstm.Visible
		}
		mgr := s.Manager
		if mgr == "" {
			mgr = "polka"
		}
		return rstm.New(rstm.Config{
			Acquire: acq, Reads: rd, Manager: cm.ByName(mgr),
			Obs: s.TxnObs,
		})
	}
	panic("harness: unknown engine kind " + s.Kind)
}

// Result is the outcome of one measured run.
type Result struct {
	Spec      EngineSpec
	Threads   int
	Ops       uint64        // committed operations
	Duration  time.Duration // wall time of the measured phase
	Stats     stm.Stats     // aggregated across worker threads
	CheckedOK bool          // post-run validation outcome (if any)
}

// Throughput returns committed operations per second.
func (r Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// ToRecord bridges a Result into the structured results schema.
func (r Result) ToRecord(experiment, workload string, repeat int, seed uint64) results.Record {
	rec := results.Record{
		Experiment:  experiment,
		Workload:    workload,
		Engine:      r.Spec.DisplayName(),
		EngineKind:  r.Spec.Kind,
		Threads:     r.Threads,
		Repeat:      repeat,
		Seed:        seed,
		DurationSec: r.Duration.Seconds(),
		Ops:         r.Ops,
		Throughput:  r.Throughput(),
		CheckedOK:   r.CheckedOK,
		Cores:       runtime.GOMAXPROCS(0),
	}
	rec.SetStats(r.Stats)
	return rec
}

// DeriveSeed mixes a base seed with a label and the run point's thread
// count and repeat index, so every run gets a distinct but reproducible
// RNG stream. Every base is a seed, 0 included: a run is a function of
// its seed.
func DeriveSeed(base uint64, label string, threads, repeat int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", label, threads, repeat)
	x := base ^ h.Sum64()
	// splitmix64 finalizer: avalanche the combined bits.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Workload binds a benchmark to an engine instance: Setup builds the
// shared data (single-threaded), BindOp binds each worker's operation,
// and Check optionally validates post-conditions.
type Workload struct {
	// Setup builds the benchmark state on e, using thread id 0.
	Setup func(e stm.STM) error
	// BindOp is called once per worker at start, on the worker's thread
	// with its index (0-based; the thread's id is worker+1, as id 0
	// belongs to setup) and its private rng, and returns the closure that
	// runs one operation. Per-thread state an operation needs (e.g.
	// bench7's op tables, which keep the steady-state loop allocation-free)
	// is bound here once.
	BindOp func(th stm.Thread, worker int, rng *util.Rand) func()
	// Check, if non-nil, validates invariants after the run.
	Check func(e stm.STM) error
}

// WorkFn performs a fixed unit of work, partitioned internally among
// workers (e.g. a shared work queue); it must return when the work is
// exhausted.
type WorkFn func(e stm.STM, th stm.Thread, worker, threads int, rng *util.Rand)

// WorkSpec bundles the phases of a fixed-work benchmark run.
type WorkSpec struct {
	// Setup builds the benchmark state on e, using thread id 0.
	Setup func(e stm.STM) error
	// Work is the fixed-work body executed by every worker.
	Work WorkFn
	// Check, if non-nil, validates invariants after the run.
	Check func(e stm.STM) error
}

// measureCfg parameterizes one measured run.
type measureCfg struct {
	threads  int
	seed     uint64        // base of every worker's RNG
	fixedOps uint64        // throughput: per-worker op quota; 0 = timed over dur
	dur      time.Duration // throughput: length of a timed run
}

// setUp builds a fresh engine for spec and runs the benchmark's Setup on it.
func setUp(spec EngineSpec, setup func(stm.STM) error) (stm.STM, error) {
	e := spec.New()
	if setup != nil {
		if err := setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	return e, nil
}

// fanOut is the run protocol both measurement modes share: cfg.threads
// workers on e, worker i on thread i+1 with the RNG DeriveSeed(cfg.seed,
// label, i, 0), each running body to its end; then the fold of their
// operation counts and stats, and check. body returns the operations its
// worker completed.
func fanOut(spec EngineSpec, e stm.STM, cfg measureCfg, label string, check func(stm.STM) error,
	body func(th stm.Thread, worker int, rng *util.Rand) uint64) (Result, error) {
	var (
		wg    sync.WaitGroup
		ops   = make([]uint64, cfg.threads)
		stats = make([]stm.Stats, cfg.threads)
	)
	start := time.Now()
	for i := 0; i < cfg.threads; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			th := e.NewThread(worker + 1)
			ops[worker] = body(th, worker, util.NewRand(DeriveSeed(cfg.seed, label, worker, 0)))
			stats[worker] = th.Stats()
		}(i)
	}
	wg.Wait()
	res := Result{Spec: spec, Threads: cfg.threads, Duration: time.Since(start), CheckedOK: true}
	for i := 0; i < cfg.threads; i++ {
		res.Ops += ops[i]
		res.Stats.Add(stats[i])
	}
	if check != nil {
		if err := check(e); err != nil {
			res.CheckedOK = false
			return res, fmt.Errorf("post-run check: %w", err)
		}
	}
	return res, nil
}

// measureThroughput runs w on a fresh engine with cfg.threads workers,
// for exactly cfg.fixedOps operations per worker or, when that is 0, for
// about cfg.dur. A fixed quota makes the op count part of the
// configuration rather than a race against the clock, so seeded runs
// are reproducible bit-for-bit (identical Ops on one thread; identical
// per-worker op streams at any thread count).
func measureThroughput(spec EngineSpec, w Workload, cfg measureCfg) (Result, error) {
	e, err := setUp(spec, w.Setup)
	if err != nil {
		return Result{}, err
	}
	stop := make(chan struct{})
	if cfg.fixedOps == 0 {
		time.AfterFunc(cfg.dur, func() { close(stop) })
	}
	return fanOut(spec, e, cfg, "worker", w.Check, func(th stm.Thread, worker int, rng *util.Rand) uint64 {
		op := w.BindOp(th, worker, rng)
		var n uint64
		for {
			if cfg.fixedOps > 0 {
				if n == cfg.fixedOps {
					return n
				}
			} else {
				select {
				case <-stop:
					return n
				default:
				}
			}
			op()
			n++
		}
	})
}

// measureWork runs a fixed-work benchmark (Lee-TM, STAMP): all routes /
// tasks are processed exactly once and the wall time is reported; a
// worker's operations are its commits.
func measureWork(spec EngineSpec, ws WorkSpec, cfg measureCfg) (Result, error) {
	e, err := setUp(spec, ws.Setup)
	if err != nil {
		return Result{}, err
	}
	return fanOut(spec, e, cfg, "work", ws.Check, func(th stm.Thread, worker int, rng *util.Rand) uint64 {
		ws.Work(e, th, worker, cfg.threads, rng)
		return th.Stats().Commits
	})
}

// RunConfig describes one experiment point for the repeat-aware
// entry points: which (experiment, workload) the records are tagged
// with, how many repeats to take, and how each run is measured.
type RunConfig struct {
	Experiment string
	Workload   string
	Threads    int
	Duration   time.Duration // per-repeat time budget of a timed throughput run
	FixedOps   uint64        // per-worker op quota of a throughput run; 0 = timed over Duration
	Repeats    int           // number of measured repeats (min 1)
	Seed       uint64        // base seed of every repeat's derived seed
}

// repeat takes cfg.Repeats measurements of spec, each with its repeat's
// seed (derived from cfg.Seed, the point and the repeat index), and
// returns one Record per repeat. On error the records measured so far
// are returned alongside it, so a failing check still leaves an audit
// trail in the output files.
func repeat(spec EngineSpec, cfg RunConfig, measure func(seed uint64) (Result, error)) ([]results.Record, error) {
	label := cfg.Experiment + "|" + cfg.Workload + "|" + spec.DisplayName()
	repeats := max(cfg.Repeats, 1)
	recs := make([]results.Record, 0, repeats)
	for rep := 0; rep < repeats; rep++ {
		seed := DeriveSeed(cfg.Seed, label, cfg.Threads, rep)
		res, err := measure(seed)
		if res.Threads != 0 || err == nil { // setup failures have no measurement to record
			recs = append(recs, res.ToRecord(cfg.Experiment, cfg.Workload, rep, seed))
		}
		if err != nil {
			return recs, fmt.Errorf("%s @%d threads repeat %d: %w", spec.DisplayName(), cfg.Threads, rep, err)
		}
	}
	return recs, nil
}

// RepeatThroughput measures cfg.Repeats runs of the workload built by
// mk (called once per repeat with that repeat's derived seed, so
// workload-internal RNGs — e.g. the red-black tree pre-fill — follow
// the seed too) and returns one Record per repeat.
func RepeatThroughput(spec EngineSpec, mk func(seed uint64) Workload, cfg RunConfig) ([]results.Record, error) {
	return repeat(spec, cfg, func(seed uint64) (Result, error) {
		return measureThroughput(spec, mk(seed), measureCfg{
			threads: cfg.Threads, seed: seed, fixedOps: cfg.FixedOps, dur: cfg.Duration,
		})
	})
}

// RepeatWork is RepeatThroughput for fixed-work benchmarks: mk builds a
// fresh WorkSpec per repeat from that repeat's derived seed.
func RepeatWork(spec EngineSpec, mk func(seed uint64) WorkSpec, cfg RunConfig) ([]results.Record, error) {
	return repeat(spec, cfg, func(seed uint64) (Result, error) {
		return measureWork(spec, mk(seed), measureCfg{threads: cfg.Threads, seed: seed})
	})
}
