// Command txkvload drives YCSB-style workload mixes against a txkv
// network server over real TCP connections and persists latency-under-
// load measurements in the results schema (DESIGN.md §5, §10): client-
// observed p50/p99/p999, the server's per-request phase timing means
// and — open loop — offered vs achieved rate plus the late-request count.
// -launch starts an in-process server per cell on an ephemeral loopback
// port (still real TCP; what `make smoke-server` and `make grid` use),
// -addr drives an externally started cmd/txkvserver.
//
// What it sweeps is a plan: engines × experiments, each experiment its
// mixes × arrival rates (0 = closed loop) × connection counts × coalesce
// batch sizes, × repeats. The flags build a one-experiment plan (-name
// names it; -rate and -coalesce-batch are its one-element axes). -config
// reads a plan from a JSON file instead — scripts/experiments.json is
// one — and a flag that has a plan field is then refused, not ignored;
// -ops alone stays, as the override of every cell's op count. A flag run
// and the config that spells the same point draw the same seed.
//
// Every run arms the over-the-wire correctness oracles (key population
// intact; balance conserved for mixes without blind updates); a failed
// oracle exits non-zero after persisting the evidence. Stdout gets one
// line per cell; -out DIR also writes the records and their summary as
// <name>.csv and <name>.summary.csv (DESIGN.md §5).
//
//	txkvload -launch -engines swisstm,tl2 -mixes transfer -conns 1,4 -ops 4000 -seed 1
//	txkvload -launch -engines swisstm -mixes read-heavy -conns 4 -rate 5000 -ops 2000
//	txkvload -addr 127.0.0.1:7070 -engines swisstm -mixes update-heavy -conns 8 -ops 10000
//	txkvload -launch -config scripts/experiments.json -name grid -out grid_runs -ops 300
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/wal"
)

// plan is what one invocation sweeps, and the schema of a -config file.
type plan struct {
	Keys        int          `json:"keys"`
	Zipf        float64      `json:"zipf"`
	Seed        uint64       `json:"seed"`
	Repeats     int          `json:"repeats"`
	LateMs      float64      `json:"late_ms"`
	Engines     []string     `json:"engines"`
	Experiments []experiment `json:"experiments"`
}

// experiment is one named sweep of a plan. Pipeline > 1 switches the load
// clients to pipelined mode with that window; CoalesceBatch is an axis like
// Conns, each entry a per-shard batch size for the launched server (0 or
// absent = coalescing off), so on/off twins of a cell land in one file.
type experiment struct {
	Name          string    `json:"name"`
	Mixes         []string  `json:"mixes"`
	Conns         []int     `json:"conns"`
	Rates         []float64 `json:"rates"`
	Ops           uint64    `json:"ops"`
	Pipeline      int       `json:"pipeline"`
	CoalesceBatch []int     `json:"coalesce_batch"`
}

// planFlags are the flags that spell a plan field: refused beside -config.
var planFlags = []string{"engines", "mixes", "conns", "rate", "keys", "zipf", "seed", "late", "repeats", "pipeline", "coalesce-batch"}

// cell is one measured point of a plan.
type cell struct {
	exp  *experiment
	spec harness.EngineSpec
	mix  txkv.Mix
	wl   string
	rate float64
	seed uint64

	conns, batch, rep int
}

// job is a parsed command line: the plan, its cells in run order, and the
// options that are no plan field.
type job struct {
	plan   plan
	cells  []cell
	launch bool
	sync   wal.SyncMode
	client txkvclient.LoadConfig // Timeout, Retries, RetryMutations, Budget

	addr, walDir, outDir, name string
}

func main() {
	j, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvload:", err)
		os.Exit(2)
	}
	recs, err := j.run(os.Stdout)
	// Persist what was measured also after a failure: it is the evidence.
	if j.outDir != "" {
		err = errors.Join(err, results.WriteFiles(j.outDir, j.name, recs))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvload:", err)
		os.Exit(1)
	}
}

// parseArgs turns the command line into a job; an error is a usage error.
func parseArgs(args []string) (*job, error) {
	j := &job{}
	fs := flag.NewFlagSet("txkvload", flag.ExitOnError)
	fs.StringVar(&j.addr, "addr", "", "address of an already-running txkvserver (mutually exclusive with -launch)")
	fs.BoolVar(&j.launch, "launch", false, "launch an in-process server per cell on an ephemeral loopback port")
	fs.StringVar(&j.walDir, "wal", "", "launch mode: durable commit log directory for the launched server (a fresh subdirectory per cell; off when empty)")
	fs.DurationVar(&j.client.Timeout, "timeout", 0, "per-request client deadline (0 = none)")
	fs.IntVar(&j.client.Retries, "retries", 0, "per-request retry budget for retryable shed replies and transport failures (0 = fail fast)")
	fs.BoolVar(&j.client.RetryMutations, "retry-mutations", false, "opt mutations into transport-failure retry (at-least-once)")
	fs.DurationVar(&j.client.Budget, "budget", 0, "per-request deadline budget propagated to the server as the wire TTL (0 = none)")
	fs.StringVar(&j.outDir, "out", "", "directory for the <name>.csv and <name>.summary.csv result files (none written when empty)")
	fs.StringVar(&j.name, "name", "txkvload", "result file base name, and the name of the experiment the flags build")
	var (
		config   = fs.String("config", "", "JSON plan to run instead of the one the flags build (excludes every flag with a plan field but -ops)")
		manager  = fs.String("cm", "polka", "RSTM contention manager (launch mode)")
		fsync    = fs.String("fsync", "group", "launch mode: commit log durability, group | none")
		ops      = fs.Uint64("ops", 2000, "total operations per cell; with -config, overrides every experiment's ops (0 = keep them)")
		engines  = fs.String("engines", strings.Join(harness.Kinds, ","), "comma-separated engine kinds (launch mode); label for -addr mode")
		mixes    = fs.String("mixes", "read-heavy,update-heavy,transfer", "comma-separated workload mixes")
		conns    = fs.String("conns", "2", "comma-separated connection-count sweep")
		rate     = fs.Float64("rate", 0, "open-loop arrival rate in ops/sec (0 = closed loop)")
		keys     = fs.Int("keys", 1024, "key population (server pre-filled with keys 1..n)")
		zipf     = fs.Float64("zipf", 0.99, "zipfian key-popularity skew θ in (0,1); 0 = uniform")
		seed     = fs.Uint64("seed", 1, "base seed of the per-connection RNGs")
		late     = fs.Duration("late", time.Millisecond, "open-loop late-dispatch threshold")
		repeats  = fs.Int("repeats", 1, "measured repeats per cell")
		pipeline = fs.Int("pipeline", 0, "per-connection in-flight window; >1 switches the client to pipelined mode (sheds counted, not retried; excludes -timeout, -retries, -retry-mutations)")
		coBatch  = fs.Int("coalesce-batch", 0, "launch mode: per-shard commit coalescing batch size for the launched server (0 = off)")
	)
	fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *config != "" {
		for _, name := range planFlags {
			if set[name] {
				return nil, fmt.Errorf("-%s is a field of the plan: set it in %s, not beside -config", name, *config)
			}
		}
		data, err := os.ReadFile(*config)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields() // a misspelt or retired key is an error, not a default
		if err := dec.Decode(&j.plan); err != nil {
			return nil, fmt.Errorf("%s: %w", *config, err)
		}
		if set["ops"] && *ops > 0 {
			for i := range j.plan.Experiments {
				j.plan.Experiments[i].Ops = *ops
			}
		}
	} else {
		exp := experiment{
			Name: j.name, Mixes: strings.Split(*mixes, ","), Rates: []float64{*rate}, Ops: *ops,
			Pipeline: *pipeline, CoalesceBatch: []int{*coBatch},
		}
		// -conns 1,2,4 is the inside of the plan's "conns": [1,2,4].
		if err := json.Unmarshal([]byte("["+*conns+"]"), &exp.Conns); err != nil {
			return nil, fmt.Errorf("bad -conns %q (want comma-separated counts)", *conns)
		}
		j.plan = plan{
			Keys: *keys, Zipf: *zipf, Seed: *seed, Repeats: *repeats, LateMs: float64(*late) / float64(time.Millisecond),
			Engines: strings.Split(*engines, ","), Experiments: []experiment{exp},
		}
	}

	var err error
	if j.cells, err = j.plan.expand(*manager); err != nil {
		return nil, err
	}
	if j.sync, err = wal.ParseSyncMode(*fsync); err != nil {
		return nil, err
	}
	if (j.addr == "") == !j.launch {
		return nil, errors.New("give exactly one of -addr or -launch")
	}
	if !j.launch && (j.walDir != "" || len(j.plan.Engines) != 1 || slices.ContainsFunc(j.cells, func(c cell) bool { return c.batch > 0 })) {
		return nil, errors.New("-addr mode takes one engine kind, the label of its records, and neither -wal nor a coalesce batch: start the server with those")
	}
	pipelined := slices.ContainsFunc(j.cells, func(c cell) bool { return c.exp.Pipeline > 1 })
	if pipelined && (j.client.Timeout > 0 || j.client.Retries > 0 || j.client.RetryMutations) {
		return nil, txkvclient.ErrPipelineOptions
	}
	return j, nil
}

// expand fills the plan's defaults (keys and late_ms are the server's and
// the client's to fill), checks it and lists its cells in run order: the
// one place a wire point is named and seeded. Every axis but the rate is
// in the seed, so a cell keeps its key stream when another axis grows and
// rate twins share theirs.
func (p *plan) expand(manager string) ([]cell, error) {
	p.Repeats = max(p.Repeats, 1)
	if len(p.Engines) == 0 {
		p.Engines = harness.Kinds
	}
	if p.Zipf < 0 || p.Zipf >= 1 {
		return nil, fmt.Errorf("zipf %v out of range (want 0 for uniform, or θ in (0,1))", p.Zipf)
	}
	specs, err := harness.ParseKinds(strings.Join(p.Engines, ","), manager)
	if err != nil {
		return nil, err
	}
	if len(p.Experiments) == 0 {
		return nil, errors.New("no experiments")
	}
	dist := "uniform"
	if p.Zipf > 0 {
		dist = "zipf"
	}
	var cells []cell
	for i := range p.Experiments {
		exp := &p.Experiments[i]
		if exp.Name == "" || len(exp.Mixes) == 0 || len(exp.Conns) == 0 || len(exp.Rates) == 0 || exp.Ops == 0 {
			return nil, fmt.Errorf("experiment %q needs name, mixes, conns, rates and ops", exp.Name)
		}
		if len(exp.CoalesceBatch) == 0 {
			exp.CoalesceBatch = []int{0}
		}
		for _, spec := range specs {
			for _, name := range exp.Mixes {
				mix, ok := txkv.MixByName(strings.TrimSpace(name))
				if !ok {
					return nil, fmt.Errorf("experiment %q: unknown mix %q", exp.Name, name)
				}
				for _, rate := range exp.Rates {
					mode := "closed"
					if rate > 0 {
						mode = "open"
					}
					wl := fmt.Sprintf("txkvsrv/%s-%s-%s", mix.Name, dist, mode)
					for _, nc := range exp.Conns {
						if nc < 1 {
							return nil, fmt.Errorf("experiment %q: bad connection count %d", exp.Name, nc)
						}
						for _, cb := range exp.CoalesceBatch {
							for rep := 0; rep < p.Repeats; rep++ {
								seed := harness.DeriveSeed(p.Seed, exp.Name+"/"+spec.Kind+"/"+wl, nc*1000+cb, rep)
								cells = append(cells, cell{exp, spec, mix, wl, rate, seed, nc, cb, rep})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// run measures the cells in order, one line to out per cell. It returns
// what was measured also when a cell or, in the end, an oracle failed.
func (j *job) run(out io.Writer) ([]results.Record, error) {
	var recs []results.Record
	failed := 0
	for i, c := range j.cells {
		at := fmt.Sprintf("%s %s %s conns=%d coalesce=%d rep=%d", c.exp.Name, c.spec.Kind, c.wl, c.conns, c.batch, c.rep)
		r, oracle, err := j.runCell(i, c)
		if err != nil {
			return recs, fmt.Errorf("%s: %w", at, err)
		}
		recs = append(recs, r)
		fmt.Fprintf(out, "[%d/%d] %s: ops=%d tput=%.0f/s p50=%.0fns p99=%.0fns p999=%.0fns srv_p50=%dns srv_p99=%dns srv_p999=%dns aborts=%d(vr=%d vc=%d ww=%d lk=%d acq=%d) offered=%.0f achieved=%.0f late=%d checked=%v\n",
			i+1, len(j.cells), at, r.Ops, r.Throughput, r.LatP50Ns, r.LatP99Ns, r.LatP999Ns,
			r.SrvP50Ns, r.SrvP99Ns, r.SrvP999Ns,
			r.Aborts, r.AbortsValidRead, r.AbortsValidCommit, r.AbortsWW, r.AbortsLocked, r.LockAcquireFail,
			r.OfferedRate, r.AchievedRate, r.LateOps, r.CheckedOK)
		if r.WalFrames > 0 || r.Retries > 0 || r.Reconnects > 0 {
			fmt.Fprintf(out, "  wal: frames=%d bytes=%d mean_wal=%.0fns recovered=%d retries=%d reconnects=%d\n",
				r.WalFrames, r.WalBytes, r.PhaseWalNs, r.WalRecoveredFrames, r.Retries, r.Reconnects)
		}
		if r.CoalesceBatches > 0 {
			fmt.Fprintf(out, "  coalesce: batches=%d items=%d commits/op=%.3f fsyncs/op=%.3f feed_events=%d\n",
				r.CoalesceBatches, r.CoalesceItems,
				float64(r.Commits)/float64(r.Ops), float64(r.WalFsyncs)/float64(r.Ops), r.FeedEvents)
		}
		if oracle != nil {
			failed++
			fmt.Fprintf(os.Stderr, "txkvload: ORACLE FAILED %s: %v\n", at, oracle)
		}
	}
	if failed > 0 {
		return recs, fmt.Errorf("%d cell(s) failed their oracles", failed)
	}
	return recs, nil
}

// runCell drives one cell — against a server launched for it, or the one
// at -addr — and returns its record plus any oracle failure.
func (j *job) runCell(i int, c cell) (rec results.Record, oracle, err error) {
	target := j.addr
	if j.launch {
		scfg := txkvserver.Config{Engine: c.spec, Keys: j.plan.Keys, CoalesceBatch: c.batch}
		if j.walDir != "" {
			// A fresh log directory per cell, also when -wal holds an
			// earlier invocation's cells: replaying a previous cell's
			// log would skew the oracles.
			if err := os.MkdirAll(j.walDir, 0o755); err != nil {
				return rec, nil, err
			}
			if scfg.WALDir, err = os.MkdirTemp(j.walDir, fmt.Sprintf("cell%03d-%s-%s-", i, c.spec.Kind, c.mix.Name)); err != nil {
				return rec, nil, err
			}
			scfg.WALSync = j.sync
		}
		srv, err := txkvserver.Start("127.0.0.1:0", scfg)
		if err != nil {
			return rec, nil, fmt.Errorf("launch: %w", err)
		}
		defer srv.Close()
		target = srv.Addr().String()
	}
	lc := j.client
	lc.Addr, lc.Mix, lc.Conns, lc.Rate, lc.Ops, lc.Seed = target, c.mix, c.conns, c.rate, c.exp.Ops, c.seed
	lc.Keys, lc.Zipf, lc.Pipeline = j.plan.Keys, j.plan.Zipf, c.exp.Pipeline
	lc.LateThreshold = time.Duration(j.plan.LateMs * float64(time.Millisecond))
	res, err := txkvclient.Run(lc)
	if err != nil {
		return rec, nil, err
	}
	rec = res.Record(c.exp.Name, c.wl, c.spec.DisplayName(), c.spec.Kind, c.conns, c.rep, c.seed)
	rec.Pipeline, rec.CoalesceBatch = c.exp.Pipeline, c.batch
	return rec, res.OracleErr, nil
}
