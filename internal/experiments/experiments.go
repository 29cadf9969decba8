// Package experiments reproduces every figure and table of the paper's
// evaluation (§4 and §5), plus the repository's own txkv key-value
// store family (DESIGN.md §6). Each experiment is a function that runs
// the relevant workloads across engines and thread counts, returns the
// structured per-repeat measurement records, and renders the same
// rows/series the paper plots from those records; cmd/paperfigs and the
// repository-root benchmarks drive them. The experiment ↔ module map
// lives in DESIGN.md §4; the record schema in DESIGN.md §5.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"swisstm/internal/bench7"
	"swisstm/internal/harness"
	"swisstm/internal/leetm"
	"swisstm/internal/rbtree"
	"swisstm/internal/results"
	"swisstm/internal/stamp"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// Options tunes experiment size so the same code serves quick smoke runs
// and full paper-shaped sweeps.
type Options struct {
	Out      io.Writer
	Duration time.Duration // per throughput point (fixed-time mode)
	Threads  []int         // thread sweep
	Scale    stamp.Scale   // STAMP input scale
	Bench7   bench7.Config // structure dimensions (mix is set per run)
	RBRange  int           // red-black tree key range (paper: 16384)
	KVKeys   int           // txkv key population (default 1024)
	Repeats  int           // measured repeats per point (0 or 1 = single run)
	Seed     uint64        // base seed of every run's derived seeds
	FixedOps uint64        // per-worker ops per throughput point; 0 = timed over Duration
}

// Default returns full-shape options (minutes of runtime).
func Default(out io.Writer) Options {
	return Options{
		Out:      out,
		Duration: 2 * time.Second,
		Threads:  []int{1, 2, 4, 8},
		Scale:    stamp.Bench,
		RBRange:  16384,
		KVKeys:   16384,
		Repeats:  1,
	}
}

// Quick returns options that finish in tens of seconds (CI/smoke).
func Quick(out io.Writer) Options {
	return Options{
		Out:      out,
		Duration: 300 * time.Millisecond,
		Threads:  []int{1, 2, 4},
		Scale:    stamp.Test,
		Bench7:   bench7.Config{Levels: 3, Fanout: 3, CompPool: 32, AtomicPerComp: 10},
		RBRange:  1024,
		KVKeys:   1024,
		Repeats:  1,
	}
}

// runCfg assembles the harness run configuration for one experiment point.
func (o Options) runCfg(experiment, workload string, threads int) harness.RunConfig {
	return harness.RunConfig{
		Experiment: experiment,
		Workload:   workload,
		Threads:    threads,
		Duration:   o.Duration,
		FixedOps:   o.FixedOps,
		Repeats:    o.Repeats,
		Seed:       o.Seed,
	}
}

// emit renders one text block to Out (a no-op when records-only).
func (o Options) emit(block string) {
	if o.Out != nil {
		fmt.Fprintln(o.Out, block)
	}
}

// fourEngines is the paper's headline engine line-up. RSTM uses the
// Serializer CM for STMBench7 ("as this gave the best performing RSTM
// configuration in STMBench7", §4) and Polka elsewhere (the default).
func fourEngines(rstmManager string) []harness.EngineSpec {
	return []harness.EngineSpec{
		{Kind: "swisstm"},
		{Kind: "tinystm"},
		{Kind: "rstm", Manager: rstmManager, Label: "RSTM"},
		{Kind: "tl2"},
	}
}

// bench7Workload adapts a bench7 mix to the throughput harness.
func (o Options) bench7Workload(mix int) harness.Workload {
	cfg := o.Bench7
	cfg.ReadOnlyPct = mix
	var b *bench7.Bench
	return harness.Workload{
		Setup: func(e stm.STM) error {
			b = bench7.Setup(e, cfg)
			return nil
		},
		BindOp: func(th stm.Thread, worker int, rng *util.Rand) func() {
			return b.NewOps(th, rng).Op
		},
		Check: func(e stm.STM) error { return b.Check() },
	}
}

// rbUpdatePct is the red-black tree's update percentage (paper: 20).
const rbUpdatePct = 20

// rbWorkload is the Figure 5/10 microbenchmark: lookups/inserts/removals
// over a pre-filled tree. seed feeds the pre-fill RNG so a run with the
// same seed rebuilds the identical tree.
func (o Options) rbWorkload(seed uint64) harness.Workload {
	var tree *rbtree.Tree
	keyRange := o.RBRange
	return harness.Workload{
		Setup: func(e stm.STM) error {
			th := e.NewThread(0)
			tree = rbtree.New(th)
			rng := util.NewRand(seed ^ 0x5eed)
			// Pre-fill to half occupancy, as customary for this bench.
			for i := 0; i < keyRange/2; i++ {
				k := stm.Word(rng.Intn(keyRange) + 1)
				stm.AtomicVoid(th, func(tx stm.Tx) { tree.Insert(tx, k, k, 0) })
			}
			return nil
		},
		Op: func(th stm.Thread, worker int, rng *util.Rand) {
			k := stm.Word(rng.Intn(keyRange) + 1)
			r := rng.Intn(100)
			switch {
			case r < rbUpdatePct/2:
				stm.Atomic(th, func(tx stm.Tx) bool { return tree.Insert(tx, k, k, 0) })
			case r < rbUpdatePct:
				stm.Atomic(th, func(tx stm.Tx) bool { return tree.Delete(tx, k) != 0 })
			default:
				// Lookups are declared read-only: the microbenchmark's 80%
				// read share rides each engine's RO fast path.
				stm.AtomicRO(th, func(tx stm.TxRO) stm.Word { v, _ := tree.Lookup(tx, k); return v })
			}
		},
		Check: func(e stm.STM) error {
			th := e.NewThread(0)
			return stm.AtomicRO(th, func(tx stm.TxRO) (err error) {
				defer func() {
					if r := recover(); r != nil {
						if _, rb := r.(stm.RollbackSignal); rb {
							panic(r) // engine retry signal, not an invariant failure
						}
						err = fmt.Errorf("rbtree invariant: %v", r)
					}
				}()
				tree.CheckInvariants(tx)
				return nil
			})
		},
	}
}

// leeWorkSpec adapts a Lee-TM board to the fixed-work harness.
func leeWorkSpec(board leetm.Board) func(seed uint64) harness.WorkSpec {
	return func(seed uint64) harness.WorkSpec {
		var r *leetm.Router
		return harness.WorkSpec{
			Setup: func(e stm.STM) error { r = leetm.Setup(e, board); return nil },
			Work: func(e stm.STM, th stm.Thread, worker, t int, rng *util.Rand) {
				r.Work(e, th, worker, t, rng)
			},
			Check: func(e stm.STM) error { return r.Check() },
		}
	}
}

// throughputRecords sweeps threads for each spec on the workload built
// by mk and returns every per-repeat record.
func (o Options) throughputRecords(experiment, workload string, specs []harness.EngineSpec, mk func(seed uint64) harness.Workload) ([]results.Record, error) {
	var recs []results.Record
	for _, spec := range specs {
		for _, tc := range o.Threads {
			r, err := harness.RepeatThroughput(spec, mk, o.runCfg(experiment, workload, tc))
			recs = append(recs, r...)
			if err != nil {
				return recs, fmt.Errorf("%s %s: %w", experiment, workload, err)
			}
		}
	}
	return recs, nil
}

// workRecords sweeps threads for each spec on the fixed-work benchmark
// built by mk (re-invoked per (threads, repeat) so state is fresh).
func (o Options) workRecords(experiment, workload string, specs []harness.EngineSpec, mk func(threads int) func(seed uint64) harness.WorkSpec) ([]results.Record, error) {
	var recs []results.Record
	for _, spec := range specs {
		for _, tc := range o.Threads {
			r, err := harness.RepeatWork(spec, mk(tc), o.runCfg(experiment, workload, tc))
			recs = append(recs, r...)
			if err != nil {
				return recs, fmt.Errorf("%s %s: %w", experiment, workload, err)
			}
		}
	}
	return recs, nil
}

// metricThroughput and metricDuration pick the figure value out of one
// aggregated point (medians, so repeats are outlier-robust).
func metricThroughput(a results.Agg) float64 { return a.Throughput.Median }
func metricDuration(a results.Agg) float64   { return a.Duration.Median }

// medianSeries folds records into one figure series per engine label,
// in first-appearance order, with one point per thread count.
func medianSeries(recs []results.Record, metric func(results.Agg) float64) []harness.Series {
	idx := map[string]int{}
	series := []harness.Series{}
	for _, a := range results.Aggregate(recs) {
		i, ok := idx[a.Engine]
		if !ok {
			i = len(series)
			idx[a.Engine] = i
			series = append(series, harness.Series{Name: a.Engine, Points: map[int]float64{}})
		}
		series[i].Points[a.Threads] = metric(a)
	}
	return series
}

// aggIndex maps (workload, engine, threads) → aggregated point, for the
// renderers that compute cross-engine ratios (speedup tables).
func aggIndex(recs []results.Record) map[string]results.Agg {
	m := map[string]results.Agg{}
	for _, a := range results.Aggregate(recs) {
		m[fmt.Sprintf("%s|%s|%d", a.Workload, a.Engine, a.Threads)] = a
	}
	return m
}

// Fig2 — STMBench7 throughput: 4 STMs × 3 workload mixes × thread sweep.
func (o Options) Fig2() ([]results.Record, error) {
	var all []results.Record
	for _, mix := range []struct {
		name string
		ro   int
	}{{"read-dominated", 90}, {"read-write", 60}, {"write-dominated", 10}} {
		recs, err := o.throughputRecords("fig2", "stmbench7/"+mix.name, fourEngines("serializer"),
			func(seed uint64) harness.Workload { return o.bench7Workload(mix.ro) })
		all = append(all, recs...)
		if err != nil {
			return all, err
		}
		o.emit(harness.FormatFigure(
			"Figure 2: STMBench7 "+mix.name+" workload", "throughput [tx/s]",
			o.Threads, medianSeries(recs, metricThroughput)))
	}
	return all, nil
}

// fig3Threads is the paper's STAMP sweep; shrunk to the configured sweep
// when it is narrower (quick mode).
func (o Options) fig3Threads() []int {
	threads := []int{1, 2, 4, 8}
	if len(o.Threads) < 4 {
		threads = o.Threads
	}
	return threads
}

// Fig3 — STAMP: speedup of SwissTM over TL2 and TinySTM (speedup − 1),
// per workload, for 1, 2, 4, 8 threads. Each engine is measured once
// per point; both baseline tables are rendered from the same records.
func (o Options) Fig3() ([]results.Record, error) {
	threads := o.fig3Threads()
	specs := []harness.EngineSpec{{Kind: "swisstm"}, {Kind: "tl2"}, {Kind: "tinystm"}}
	var all []results.Record
	for _, wl := range stamp.Workloads {
		for _, spec := range specs {
			for _, tc := range threads {
				recs, err := harness.RepeatWork(spec, stamp.WorkSpec(wl, o.Scale, tc), o.runCfg("fig3", "stamp/"+wl, tc))
				all = append(all, recs...)
				if err != nil {
					return all, err
				}
			}
		}
	}
	o.renderFig3(all, threads)
	return all, nil
}

func (o Options) renderFig3(recs []results.Record, threads []int) {
	if o.Out == nil {
		return
	}
	agg := aggIndex(recs)
	for _, baseline := range []struct{ kind, engine string }{{"tl2", "TL2"}, {"tinystm", "TinySTM"}} {
		fmt.Fprintf(o.Out, "# Figure 3: SwissTM vs %s on STAMP (speedup - 1; positive = SwissTM faster)\n", baseline.kind)
		fmt.Fprintf(o.Out, "%-16s", "workload")
		for _, tc := range threads {
			fmt.Fprintf(o.Out, "%10dthr", tc)
		}
		fmt.Fprintln(o.Out)
		for _, wl := range stamp.Workloads {
			fmt.Fprintf(o.Out, "%-16s", wl)
			for _, tc := range threads {
				swiss := agg[fmt.Sprintf("stamp/%s|SwissTM|%d", wl, tc)]
				base := agg[fmt.Sprintf("stamp/%s|%s|%d", wl, baseline.engine, tc)]
				if swiss.Duration.Median <= 0 || tc > swiss.Cores {
					fmt.Fprintf(o.Out, "%13s", "-")
					continue
				}
				fmt.Fprintf(o.Out, "%13.2f", base.Duration.Median/swiss.Duration.Median-1)
			}
			fmt.Fprintln(o.Out)
		}
		fmt.Fprintln(o.Out)
	}
}

// Fig4 — Lee-TM execution time: SwissTM, TinySTM, RSTM on the memory and
// main boards (the paper could not run TL2 on Lee-TM; we mirror the
// line-up).
func (o Options) Fig4() ([]results.Record, error) {
	specs := []harness.EngineSpec{{Kind: "rstm", Manager: "polka", Label: "RSTM"}, {Kind: "tinystm"}, {Kind: "swisstm"}}
	var all []results.Record
	for _, board := range []leetm.Board{leetm.MemoryBoard(), leetm.MainBoard()} {
		board := board
		recs, err := o.workRecords("fig4", "leetm/"+board.Name, specs,
			func(threads int) func(uint64) harness.WorkSpec { return leeWorkSpec(board) })
		all = append(all, recs...)
		if err != nil {
			return all, err
		}
		o.emit(harness.FormatFigure(
			"Figure 4: Lee-TM "+board.Name+" board", "duration [s]",
			o.Threads, medianSeries(recs, metricDuration)))
	}
	return all, nil
}

// Fig5 — red-black tree throughput, 4 STMs, range 16384, 20% updates.
func (o Options) Fig5() ([]results.Record, error) {
	recs, err := o.throughputRecords("fig5", "rbtree", fourEngines("polka"), o.rbWorkload)
	if err != nil {
		return recs, err
	}
	o.emit(harness.FormatFigure(
		fmt.Sprintf("Figure 5: red-black tree (range %d, %d%% updates)", o.RBRange, rbUpdatePct),
		"throughput [tx/s]", o.Threads, medianSeries(recs, metricThroughput)))
	return recs, nil
}

// Fig7 — eager vs lazy conflict detection in read-dominated STMBench7:
// TinySTM (eager), RSTM eager, RSTM lazy, TL2 (lazy).
func (o Options) Fig7() ([]results.Record, error) {
	specs := []harness.EngineSpec{
		{Kind: "tinystm", Label: "TinySTM (eager)"},
		{Kind: "rstm", Acquire: "eager", Manager: "polka", Label: "RSTM eager"},
		{Kind: "rstm", Acquire: "lazy", Manager: "polka", Label: "RSTM lazy"},
		{Kind: "tl2", Label: "TL2 (lazy)"},
	}
	recs, err := o.throughputRecords("fig7", "stmbench7/read-dominated", specs,
		func(seed uint64) harness.Workload { return o.bench7Workload(90) })
	if err != nil {
		return recs, err
	}
	o.emit(harness.FormatFigure(
		"Figure 7: eager vs lazy conflict detection, read-dominated STMBench7",
		"throughput [tx/s]", o.Threads, medianSeries(recs, metricThroughput)))
	return recs, nil
}

// Fig8 — "irregular" Lee-TM: SwissTM vs TinySTM with R ∈ {0, 5, 20}% of
// transactions updating the shared object Oc.
func (o Options) Fig8() ([]results.Record, error) {
	board := leetm.MemoryBoard()
	var all []results.Record
	for _, base := range []harness.EngineSpec{{Kind: "swisstm"}, {Kind: "tinystm"}} {
		for _, r := range []int{0, 5, 20} {
			b := board
			b.IrregularPct = r
			spec := base
			spec.Label = fmt.Sprintf("%s %d%%", base.DisplayName(), r)
			recs, err := o.workRecords("fig8", "leetm/memory-irregular", []harness.EngineSpec{spec},
				func(threads int) func(uint64) harness.WorkSpec { return leeWorkSpec(b) })
			all = append(all, recs...)
			if err != nil {
				return all, err
			}
		}
	}
	o.emit(harness.FormatFigure(
		"Figure 8: irregular Lee-TM (memory board), SwissTM vs TinySTM",
		"duration [s]", o.Threads, medianSeries(all, metricDuration)))
	return all, nil
}

// Fig9 — Polka vs Greedy contention managers in RSTM on read-dominated
// STMBench7.
func (o Options) Fig9() ([]results.Record, error) {
	specs := []harness.EngineSpec{
		{Kind: "rstm", Manager: "greedy", Label: "RSTM Greedy"},
		{Kind: "rstm", Manager: "polka", Label: "RSTM Polka"},
	}
	recs, err := o.throughputRecords("fig9", "stmbench7/read-dominated", specs,
		func(seed uint64) harness.Workload { return o.bench7Workload(90) })
	if err != nil {
		return recs, err
	}
	o.emit(harness.FormatFigure(
		"Figure 9: Polka vs Greedy (RSTM), read-dominated STMBench7",
		"throughput [tx/s]", o.Threads, medianSeries(recs, metricThroughput)))
	return recs, nil
}

// Fig10 — SwissTM's two-phase CM vs plain Greedy on the red-black tree:
// Greedy's shared startup counter costs short transactions dearly.
func (o Options) Fig10() ([]results.Record, error) {
	specs := []harness.EngineSpec{
		{Kind: "swisstm", Label: "Two-phase"},
		{Kind: "swisstm", Policy: "greedy", Label: "Greedy"},
	}
	recs, err := o.throughputRecords("fig10", "rbtree", specs, o.rbWorkload)
	if err != nil {
		return recs, err
	}
	o.emit(harness.FormatFigure(
		"Figure 10: two-phase vs Greedy CM (SwissTM), red-black tree",
		"throughput [tx/s]", o.Threads, medianSeries(recs, metricThroughput)))
	return recs, nil
}

// Fig11 — back-off vs no back-off (SwissTM) on STAMP intruder.
func (o Options) Fig11() ([]results.Record, error) {
	specs := []harness.EngineSpec{
		{Kind: "swisstm", NoBackoff: true, Label: "No backoff"},
		{Kind: "swisstm", Label: "Linear backoff"},
	}
	recs, err := o.workRecords("fig11", "stamp/intruder", specs,
		func(threads int) func(uint64) harness.WorkSpec { return stamp.WorkSpec("intruder", o.Scale, threads) })
	if err != nil {
		return recs, err
	}
	o.emit(harness.FormatFigure(
		"Figure 11: back-off vs no back-off (SwissTM), STAMP intruder",
		"duration [s]", o.Threads, medianSeries(recs, metricDuration)))
	return recs, nil
}

// Fig12 — speedup (−1) of the two-phase CM over timid in SwissTM on the
// three STMBench7 mixes.
func (o Options) Fig12() ([]results.Record, error) {
	specs := []harness.EngineSpec{
		{Kind: "swisstm"},
		{Kind: "swisstm", Policy: "timid"},
	}
	var all []results.Record
	mixes := []struct {
		name string
		ro   int
	}{{"read", 90}, {"read/write", 60}, {"write", 10}}
	for _, mix := range mixes {
		recs, err := o.throughputRecords("fig12", "stmbench7/"+mix.name, specs,
			func(seed uint64) harness.Workload { return o.bench7Workload(mix.ro) })
		all = append(all, recs...)
		if err != nil {
			return all, err
		}
	}
	if o.Out != nil {
		agg := aggIndex(all)
		series := []harness.Series{}
		for _, mix := range mixes {
			s := harness.Series{Name: mix.name, Points: map[int]float64{}}
			for _, tc := range o.Threads {
				two := agg[fmt.Sprintf("stmbench7/%s|SwissTM|%d", mix.name, tc)]
				timid := agg[fmt.Sprintf("stmbench7/%s|SwissTM(timid)|%d", mix.name, tc)]
				if timid.Throughput.Median > 0 && tc <= two.Cores {
					s.Points[tc] = two.Throughput.Median/timid.Throughput.Median - 1
				}
			}
			series = append(series, s)
		}
		o.emit(harness.FormatFigure(
			"Figure 12: two-phase vs timid CM speedup-1 (SwissTM), STMBench7",
			"speedup - 1", o.Threads, series))
	}
	return all, nil
}

// granularities lists the sweep of Figure 13 in words per stripe. The
// paper sweeps 2^2..2^8 *bytes* with 32-bit words, i.e. 1..64 words;
// with this repository's 64-bit words the same word counts are
// 2^0..2^6 words ≡ 2^3..2^9 bytes.
var granularities = []uint{0, 1, 2, 3, 4, 5, 6}

// granLabel names one granularity's SwissTM configuration in records.
func granLabel(g uint) string { return fmt.Sprintf("SwissTM %dw/stripe", 1<<g) }

// granBench is one benchmark of the Figure 13 / Table 2 granularity
// sweep: run measures it under one granularity and returns the records.
type granBench struct {
	name      string // display name in tables
	workload  string // record workload tag
	fixedWork bool   // merit = 1/duration (else throughput)
	run       func(g uint) ([]results.Record, error)
}

func (o Options) granBenchmarks(experiment string, threads int) []granBench {
	mk := func(g uint) harness.EngineSpec {
		return harness.EngineSpec{Kind: "swisstm", StripeWords: 1 << g, Label: granLabel(g)}
	}
	benches := []granBench{}
	for _, wl := range stamp.Workloads {
		wl := wl
		benches = append(benches, granBench{name: wl, workload: "stamp/" + wl, fixedWork: true,
			run: func(g uint) ([]results.Record, error) {
				return harness.RepeatWork(mk(g), stamp.WorkSpec(wl, o.Scale, threads), o.runCfg(experiment, "stamp/"+wl, threads))
			}})
	}
	benches = append(benches, granBench{name: "red-black tree", workload: "rbtree",
		run: func(g uint) ([]results.Record, error) {
			return harness.RepeatThroughput(mk(g), o.rbWorkload, o.runCfg(experiment, "rbtree", threads))
		}})
	for _, board := range []leetm.Board{leetm.MemoryBoard(), leetm.MainBoard()} {
		board := board
		benches = append(benches, granBench{name: "Lee-TM " + board.Name, workload: "leetm/" + board.Name, fixedWork: true,
			run: func(g uint) ([]results.Record, error) {
				return harness.RepeatWork(mk(g), leeWorkSpec(board), o.runCfg(experiment, "leetm/"+board.Name, threads))
			}})
	}
	for _, mix := range []struct {
		name string
		ro   int
	}{{"STMBench7 read", 90}, {"STMBench7 read-write", 60}, {"STMBench7 write", 10}} {
		mix := mix
		wl := "stmbench7/" + strings.ReplaceAll(strings.TrimPrefix(mix.name, "STMBench7 "), " ", "-")
		benches = append(benches, granBench{name: mix.name, workload: wl,
			run: func(g uint) ([]results.Record, error) {
				return harness.RepeatThroughput(mk(g),
					func(seed uint64) harness.Workload { return o.bench7Workload(mix.ro) },
					o.runCfg(experiment, wl, threads))
			}})
	}
	return benches
}

// merit extracts one benchmark's figure of merit (higher = better) for
// one granularity from that run's records.
func (b granBench) merit(recs []results.Record) float64 {
	aggs := results.Aggregate(recs)
	if len(aggs) == 0 {
		return 0
	}
	a := aggs[0]
	if b.fixedWork {
		if a.Duration.Median <= 0 {
			return 0
		}
		return 1 / a.Duration.Median
	}
	return a.Throughput.Median
}

// granSweep measures every benchmark under every granularity in grans,
// returning all records plus merit[granularity][benchmark index].
func (o Options) granSweep(experiment string, grans []uint, threads int) ([]results.Record, map[uint][]float64, error) {
	benches := o.granBenchmarks(experiment, threads)
	var all []results.Record
	score := make(map[uint][]float64, len(grans))
	for _, g := range grans {
		for _, b := range benches {
			recs, err := b.run(g)
			all = append(all, recs...)
			if err != nil {
				return all, score, fmt.Errorf("%s %s gran 2^%d: %w", experiment, b.name, g, err)
			}
			score[g] = append(score[g], b.merit(recs))
		}
	}
	return all, score, nil
}

// Fig13 — average speedup (−1) of each lock granularity against all the
// others, across all benchmarks, at 8 threads (or the sweep's maximum).
func (o Options) Fig13() ([]results.Record, error) {
	threads := o.Threads[len(o.Threads)-1]
	all, score, err := o.granSweep("fig13", granularities, threads)
	if err != nil {
		return all, err
	}
	if o.Out != nil {
		nBench := len(score[granularities[0]])
		fmt.Fprintf(o.Out, "# Figure 13: average speedup-1 per lock granularity vs all others (%d threads, %d cores)\n", threads, all[0].Cores)
		fmt.Fprintf(o.Out, "# granularity axis: words/stripe (paper: 2^2..2^8 bytes at 4B words; here 64-bit words)\n")
		fmt.Fprintf(o.Out, "%-18s%14s\n", "words/stripe", "avg speedup-1")
		for _, g := range granularities {
			sum := 0.0
			for bi := 0; bi < nBench; bi++ {
				others := []float64{}
				for _, g2 := range granularities {
					if g2 != g {
						others = append(others, score[g2][bi])
					}
				}
				sum += harness.GeoMeanSpeedup(score[g][bi], others)
			}
			fmt.Fprintf(o.Out, "%-18d%14s\n", 1<<g, speedupCell(sum/float64(nBench), 3, all[0]))
		}
		fmt.Fprintln(o.Out)
	}
	return all, nil
}

// Table1 — effectiveness of STM design-choice combinations on the mixed
// (read-write) STMBench7 workload: the paper's qualitative ranking,
// quantified as throughput at the sweep's top thread count.
func (o Options) Table1() ([]results.Record, error) {
	threads := o.Threads[len(o.Threads)-1]
	specs := []harness.EngineSpec{
		{Kind: "rstm", Acquire: "lazy", Manager: "polka", Label: "lazy/invisible/any (TL2-like)"},
		{Kind: "rstm", Acquire: "eager", Reads: "visible", Manager: "polka", Label: "eager/visible/any"},
		{Kind: "rstm", Acquire: "eager", Manager: "polka", Label: "eager/invisible/Polka"},
		{Kind: "rstm", Acquire: "eager", Manager: "timid", Label: "eager/invisible/timid"},
		{Kind: "swisstm", Policy: "timid", Label: "mixed/invisible/timid"},
		{Kind: "swisstm", Label: "mixed/invisible/2-phase (SwissTM)"},
	}
	var all []results.Record
	for _, spec := range specs {
		recs, err := harness.RepeatThroughput(spec,
			func(seed uint64) harness.Workload { return o.bench7Workload(60) },
			o.runCfg("table1", "stmbench7/read-write", threads))
		all = append(all, recs...)
		if err != nil {
			return all, fmt.Errorf("table1 %s: %w", spec.DisplayName(), err)
		}
	}
	if o.Out != nil {
		fmt.Fprintf(o.Out, "# Table 1: design-choice combinations on read-write STMBench7 (%d threads)\n", threads)
		fmt.Fprintf(o.Out, "%-36s%16s\n", "acquire/reads/CM", "throughput tx/s")
		for _, a := range results.Aggregate(all) {
			fmt.Fprintf(o.Out, "%-36s%16.1f\n", a.Engine, a.Throughput.Median)
		}
		fmt.Fprintln(o.Out)
	}
	return all, nil
}

// table2Grans are Table 2's three granularities: 1, 4 and 16 words per
// stripe (the paper's 2^2, 2^4 and 2^6 bytes with 32-bit words).
var table2Grans = []uint{0, 2, 4}

// Table2 — per-benchmark relative speedups (−1) between three lock
// granularities: 4 words vs 1 word vs 16 words per stripe.
func (o Options) Table2() ([]results.Record, error) {
	threads := o.Threads[len(o.Threads)-1]
	all, score, err := o.granSweep("table2", table2Grans, threads)
	if err != nil {
		return all, err
	}
	if o.Out != nil {
		benches := o.granBenchmarks("table2", threads)
		fmt.Fprintf(o.Out, "# Table 2: lock granularity comparison (%d threads, %d cores; speedup-1)\n", threads, all[0].Cores)
		fmt.Fprintf(o.Out, "%-22s%12s%12s%12s\n", "benchmark", "4w vs 1w", "4w vs 16w", "1w vs 16w")
		row := func(name string, c [3]float64) {
			fmt.Fprintf(o.Out, "%-22s", name)
			for _, v := range c {
				fmt.Fprintf(o.Out, "%12s", speedupCell(v, 2, all[0]))
			}
			fmt.Fprintln(o.Out)
		}
		means := [3]float64{}
		for bi, b := range benches {
			v1, v4, v16 := score[0][bi], score[2][bi], score[4][bi]
			ratio := func(a, b float64) float64 { return harness.GeoMeanSpeedup(a, []float64{b}) }
			c := [3]float64{ratio(v4, v1), ratio(v4, v16), ratio(v1, v16)}
			for i := range means {
				means[i] += c[i] / float64(len(benches))
			}
			row(b.name, c)
		}
		row("Average", means)
		fmt.Fprintln(o.Out)
	}
	return all, nil
}

// speedupCell renders a ratio between two configurations measured like
// rec, or "-" when rec ran more threads than its host has cores: an
// oversubscribed point is a measurement, not a speed-up.
func speedupCell(v float64, prec int, rec results.Record) string {
	if rec.Threads > rec.Cores {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// Names lists the runnable experiments.
var Names = []string{
	"fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "table1", "table2",
	"txkv",
}

// Run dispatches one experiment by name, returning its per-repeat
// records (also on error: whatever was measured before the failure).
func (o Options) Run(name string) ([]results.Record, error) {
	switch name {
	case "fig2":
		return o.Fig2()
	case "fig3":
		return o.Fig3()
	case "fig4":
		return o.Fig4()
	case "fig5":
		return o.Fig5()
	case "fig7":
		return o.Fig7()
	case "fig8":
		return o.Fig8()
	case "fig9":
		return o.Fig9()
	case "fig10":
		return o.Fig10()
	case "fig11":
		return o.Fig11()
	case "fig12":
		return o.Fig12()
	case "fig13":
		return o.Fig13()
	case "table1":
		return o.Table1()
	case "table2":
		return o.Table2()
	case "txkv":
		return o.TxKV()
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
}
