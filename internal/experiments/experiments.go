// Package experiments reproduces every figure and table of the paper's
// evaluation (§4 and §5), plus the repository's own txkv key-value
// store family (DESIGN.md §6). The experiments are the rows of one
// table: each row names its engines, its points (a workload and the
// figure it is drawn in) and its thread rule, and Run measures every
// point × engine × thread count through the harness, returns the
// per-repeat measurement records and renders the rows/series the paper
// plots from those records; cmd/paperfigs drives it. The experiment ↔
// module map lives in DESIGN.md §4; the record schema in DESIGN.md §5.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"swisstm/internal/bench7"
	"swisstm/internal/harness"
	"swisstm/internal/leetm"
	"swisstm/internal/rbtree"
	"swisstm/internal/results"
	"swisstm/internal/stamp"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
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

// experiment is one row of the table: a figure or table of the paper, or
// the txkv family.
type experiment struct {
	name    string
	engines []harness.EngineSpec
	points  func(o Options) []point
	threads func(o Options) []int // nil: the sweep
	render  func(r run)           // nil: one figure of medians per title
}

// point is one workload of an experiment. Exactly one of tput and work is
// set.
type point struct {
	workload string             // record tag
	title    string             // the figure it is drawn in, or its row in a renderer of its own
	engine   harness.EngineSpec // Figure 8: the point's own engine; zero: the experiment's
	tput     func(seed uint64) harness.Workload
	work     func(threads int, seed uint64) harness.WorkSpec
}

// run is one experiment as measured: what a renderer draws from.
type run struct {
	out     io.Writer
	pts     []point
	threads []int
	recs    []results.Record
}

// table is the evaluation, in the order `paperfigs -list` prints it.
var table = []experiment{
	{name: "fig2", engines: fourEngines("serializer"), points: func(o Options) []point {
		return o.bench7Points([3]string{"read-dominated", "read-write", "write-dominated"},
			func(mix string) string { return "Figure 2: STMBench7 " + mix + " workload" })
	}},
	// Figure 3: SwissTM's speedup over TL2 and over TinySTM; each engine
	// is measured once per point and both tables are rendered from it.
	{name: "fig3", engines: []harness.EngineSpec{{Kind: "swisstm"}, {Kind: "tl2"}, {Kind: "tinystm"}},
		points: func(o Options) []point {
			var pts []point
			for _, app := range stamp.Workloads {
				pts = append(pts, o.stampPoint(app, app))
			}
			return pts
		}, threads: fig3Threads, render: renderFig3},
	// The paper could not run TL2 on Lee-TM; the line-up mirrors it.
	{name: "fig4", engines: []harness.EngineSpec{{Kind: "rstm", Manager: "polka", Label: "RSTM"}, {Kind: "tinystm"}, {Kind: "swisstm"}},
		points: func(o Options) []point {
			var pts []point
			for _, board := range []leetm.Board{leetm.MemoryBoard(), leetm.MainBoard()} {
				pts = append(pts, leePoint("leetm/"+board.Name, "Figure 4: Lee-TM "+board.Name+" board", board))
			}
			return pts
		}},
	{name: "fig5", engines: fourEngines("polka"), points: func(o Options) []point {
		return []point{o.rbPoint(fmt.Sprintf("Figure 5: red-black tree (range %d, %d%% updates)", o.RBRange, rbUpdatePct))}
	}},
	{name: "fig7", engines: []harness.EngineSpec{
		{Kind: "tinystm", Label: "TinySTM (eager)"},
		{Kind: "rstm", Acquire: "eager", Manager: "polka", Label: "RSTM eager"},
		{Kind: "rstm", Acquire: "lazy", Manager: "polka", Label: "RSTM lazy"},
		{Kind: "tl2", Label: "TL2 (lazy)"},
	}, points: func(o Options) []point {
		return []point{o.bench7Point("stmbench7/read-dominated", "Figure 7: eager vs lazy conflict detection, read-dominated STMBench7", 90)}
	}},
	// Figure 8: R ∈ {0, 5, 20} % of routing transactions update the
	// shared object Oc; each (engine, R) is a series of its own.
	{name: "fig8", points: func(o Options) []point {
		var pts []point
		for _, base := range []harness.EngineSpec{{Kind: "swisstm"}, {Kind: "tinystm"}} {
			for _, r := range []int{0, 5, 20} {
				board := leetm.MemoryBoard()
				board.IrregularPct = r
				p := leePoint("leetm/memory-irregular", "Figure 8: irregular Lee-TM (memory board), SwissTM vs TinySTM", board)
				p.engine = base
				p.engine.Label = fmt.Sprintf("%s %d%%", base.DisplayName(), r)
				pts = append(pts, p)
			}
		}
		return pts
	}},
	{name: "fig9", engines: []harness.EngineSpec{
		{Kind: "rstm", Manager: "greedy", Label: "RSTM Greedy"},
		{Kind: "rstm", Manager: "polka", Label: "RSTM Polka"},
	}, points: func(o Options) []point {
		return []point{o.bench7Point("stmbench7/read-dominated", "Figure 9: Polka vs Greedy (RSTM), read-dominated STMBench7", 90)}
	}},
	// Figure 10: Greedy's shared startup counter costs short transactions
	// dearly.
	{name: "fig10", engines: []harness.EngineSpec{
		{Kind: "swisstm", Label: "Two-phase"},
		{Kind: "swisstm", Policy: "greedy", Label: "Greedy"},
	}, points: func(o Options) []point {
		return []point{o.rbPoint("Figure 10: two-phase vs Greedy CM (SwissTM), red-black tree")}
	}},
	{name: "fig11", engines: []harness.EngineSpec{
		{Kind: "swisstm", NoBackoff: true, Label: "No backoff"},
		{Kind: "swisstm", Label: "Linear backoff"},
	}, points: func(o Options) []point {
		return []point{o.stampPoint("intruder", "Figure 11: back-off vs no back-off (SwissTM), STAMP intruder")}
	}},
	{name: "fig12", engines: []harness.EngineSpec{{Kind: "swisstm"}, {Kind: "swisstm", Policy: "timid"}},
		points: func(o Options) []point {
			return o.bench7Points([3]string{"read", "read/write", "write"}, func(mix string) string { return mix })
		}, render: renderFig12},
	{name: "fig13", engines: granSpecs(granularities), points: granPoints, threads: top, render: renderFig13},
	// Table 1: the paper's qualitative ranking of design-choice
	// combinations, quantified as throughput at the sweep's top count.
	{name: "table1", engines: []harness.EngineSpec{
		{Kind: "rstm", Acquire: "lazy", Manager: "polka", Label: "lazy/invisible/any (TL2-like)"},
		{Kind: "rstm", Acquire: "eager", Reads: "visible", Manager: "polka", Label: "eager/visible/any"},
		{Kind: "rstm", Acquire: "eager", Manager: "polka", Label: "eager/invisible/Polka"},
		{Kind: "rstm", Acquire: "eager", Manager: "timid", Label: "eager/invisible/timid"},
		{Kind: "swisstm", Policy: "timid", Label: "mixed/invisible/timid"},
		{Kind: "swisstm", Label: "mixed/invisible/2-phase (SwissTM)"},
	}, points: func(o Options) []point {
		return []point{o.bench7Point("stmbench7/read-write", "", 60)}
	}, threads: top, render: renderTable1},
	{name: "table2", engines: granSpecs(table2Grans), points: granPoints, threads: top, render: renderTable2},
	// txkv: the store under the three headline mixes plus read-only, all
	// zipfian, and one uniform point for the skew axis; the balance and
	// last-write oracles are armed on every run. RSTM is named as an
	// -engines list names it, so these rows and txkvload's wire rows agree
	// ("RSTM(polka)").
	{name: "txkv", engines: []harness.EngineSpec{{Kind: "swisstm"}, {Kind: "tinystm"}, {Kind: "rstm", Manager: "polka"}, {Kind: "tl2"}},
		points: func(o Options) []point {
			keys := o.KVKeys
			if keys == 0 {
				keys = 1024
			}
			var pts []point
			for _, mix := range txkv.Mixes {
				pts = append(pts, kvPoint(txkv.GenConfig{Mix: mix, Keys: keys, Zipf: kvZipf}, "zipf"))
			}
			return append(pts, kvPoint(txkv.GenConfig{Mix: txkv.ReadHeavy, Keys: keys}, "uniform"))
		}},
}

// Names lists the runnable experiments.
var Names = func() []string {
	var names []string
	for _, e := range table {
		names = append(names, e.name)
	}
	return names
}()

// Run measures one experiment by name and renders it to Out, returning
// its per-repeat records (also on error: whatever was measured before
// the failure).
func (o Options) Run(name string) ([]results.Record, error) {
	i := slices.IndexFunc(table, func(e experiment) bool { return e.name == name })
	if i < 0 {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
	e := table[i]
	r := run{out: o.Out, pts: e.points(o), threads: o.Threads}
	if e.threads != nil {
		r.threads = e.threads(o)
	}
	for _, p := range r.pts {
		engines := e.engines
		if p.engine.Kind != "" {
			engines = []harness.EngineSpec{p.engine}
		}
		for _, spec := range engines {
			for _, tc := range r.threads {
				cfg := harness.RunConfig{
					Experiment: name, Workload: p.workload, Threads: tc,
					Duration: o.Duration, FixedOps: o.FixedOps, Repeats: o.Repeats, Seed: o.Seed,
				}
				var recs []results.Record
				var err error
				if p.work != nil {
					recs, err = harness.RepeatWork(spec, func(seed uint64) harness.WorkSpec { return p.work(tc, seed) }, cfg)
				} else {
					recs, err = harness.RepeatThroughput(spec, p.tput, cfg)
				}
				r.recs = append(r.recs, recs...)
				if err != nil {
					return r.recs, fmt.Errorf("%s %s: %w", name, p.workload, err)
				}
			}
		}
	}
	if o.Out != nil {
		if e.render == nil {
			renderFigures(r)
		} else {
			e.render(r)
		}
	}
	return r.recs, nil
}

// fig3Threads is the paper's STAMP sweep; shrunk to the configured sweep
// when it is narrower (quick mode).
func fig3Threads(o Options) []int {
	if len(o.Threads) < 4 {
		return o.Threads
	}
	return []int{1, 2, 4, 8}
}

// top is the sweep's top thread count (8 in the paper).
func top(o Options) []int { return o.Threads[len(o.Threads)-1:] }

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

// bench7Point is one STMBench7 mix with ro % read-only operations.
func (o Options) bench7Point(workload, title string, ro int) point {
	cfg := o.Bench7
	cfg.ReadOnlyPct = ro
	return point{workload: workload, title: title, tput: func(uint64) harness.Workload {
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
	}}
}

// bench7Points are STMBench7's three mixes (90, 60 and 10 % read-only),
// under the names an experiment gives them, each titled by title.
func (o Options) bench7Points(mixes [3]string, title func(mix string) string) []point {
	var pts []point
	for i, ro := range [3]int{90, 60, 10} {
		pts = append(pts, o.bench7Point("stmbench7/"+mixes[i], title(mixes[i]), ro))
	}
	return pts
}

// rbUpdatePct is the red-black tree's update percentage (paper: 20).
const rbUpdatePct = 20

// rbPoint is the Figure 5/10 microbenchmark: lookups/inserts/removals
// over a pre-filled tree. The run's seed feeds the pre-fill RNG, so a run
// with the same seed rebuilds the identical tree.
func (o Options) rbPoint(title string) point {
	keyRange := o.RBRange
	return point{workload: "rbtree", title: title, tput: func(seed uint64) harness.Workload {
		var tree *rbtree.Tree
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
			BindOp: func(th stm.Thread, worker int, rng *util.Rand) func() {
				return func() {
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
	}}
}

// stampPoint is one STAMP application, fixed work sized for the run's
// thread count.
func (o Options) stampPoint(app, title string) point {
	return point{workload: "stamp/" + app, title: title, work: func(threads int, seed uint64) harness.WorkSpec {
		return stamp.WorkSpec(app, o.Scale, threads)(seed)
	}}
}

// leePoint is one Lee-TM board, fixed work: every net routed once.
func leePoint(workload, title string, board leetm.Board) point {
	return point{workload: workload, title: title, work: func(int, uint64) harness.WorkSpec {
		var r *leetm.Router
		return harness.WorkSpec{
			Setup: func(e stm.STM) error { r = leetm.Setup(e, board); return nil },
			Work: func(e stm.STM, th stm.Thread, worker, t int, rng *util.Rand) {
				r.Work(e, th, worker, t, rng)
			},
			Check: func(e stm.STM) error { return r.Check() },
		}
	}}
}

// kvZipf is the txkv zipfian skew θ of every zipfian point.
const kvZipf = 0.99

// kvPoint is one txkv mix over the popularity cfg sets (dist names it in
// the workload tag).
func kvPoint(cfg txkv.GenConfig, dist string) point {
	title := fmt.Sprintf("TxKV %s (uniform, %d keys)", cfg.Mix.Name, cfg.Keys)
	if cfg.Zipf > 0 {
		title = fmt.Sprintf("TxKV %s (zipfian θ=%.2f, %d keys)", cfg.Mix.Name, cfg.Zipf, cfg.Keys)
	}
	return point{workload: "txkv/" + cfg.Mix.Name + "-" + dist, title: title,
		tput: func(uint64) harness.Workload { return txkv.NewGen(cfg).Workload() }}
}

// granularities lists the sweep of Figure 13 in words per stripe. The
// paper sweeps 2^2..2^8 *bytes* with 32-bit words, i.e. 1..64 words;
// with this repository's 64-bit words the same word counts are
// 2^0..2^6 words ≡ 2^3..2^9 bytes.
var granularities = []uint{0, 1, 2, 3, 4, 5, 6}

// table2Grans are Table 2's three granularities: 1, 4 and 16 words per
// stripe (the paper's 2^2, 2^4 and 2^6 bytes with 32-bit words).
var table2Grans = []uint{0, 2, 4}

// granLabel names one granularity's SwissTM configuration in records.
func granLabel(g uint) string { return fmt.Sprintf("SwissTM %dw/stripe", 1<<g) }

// granSpecs is SwissTM at each granularity of grans.
func granSpecs(grans []uint) []harness.EngineSpec {
	var specs []harness.EngineSpec
	for _, g := range grans {
		specs = append(specs, harness.EngineSpec{Kind: "swisstm", StripeWords: 1 << g, Label: granLabel(g)})
	}
	return specs
}

// granPoints are the benchmarks of Figure 13 and Table 2, each titled
// by its row in their tables.
func granPoints(o Options) []point {
	var pts []point
	for _, app := range stamp.Workloads {
		pts = append(pts, o.stampPoint(app, app))
	}
	pts = append(pts, o.rbPoint("red-black tree"))
	for _, board := range []leetm.Board{leetm.MemoryBoard(), leetm.MainBoard()} {
		pts = append(pts, leePoint("leetm/"+board.Name, "Lee-TM "+board.Name, board))
	}
	return append(pts, o.bench7Points([3]string{"read", "read-write", "write"},
		func(mix string) string { return "STMBench7 " + mix })...)
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

// renderFigures is the default renderer: one figure per distinct title,
// each engine a series of medians per thread count — throughput, or
// duration for fixed work.
func renderFigures(r run) {
	titleOf := map[string]string{}
	for _, p := range r.pts {
		titleOf[p.workload] = p.title
	}
	for i, p := range r.pts {
		if i > 0 && r.pts[i-1].title == p.title {
			continue // drawn with the point before it
		}
		metric, value := "throughput [tx/s]", func(a results.Agg) float64 { return a.Throughput.Median }
		if p.work != nil {
			metric, value = "duration [s]", func(a results.Agg) float64 { return a.Duration.Median }
		}
		var recs []results.Record
		for _, rec := range r.recs {
			if titleOf[rec.Workload] == p.title {
				recs = append(recs, rec)
			}
		}
		idx := map[string]int{}
		lines := []series{}
		for _, a := range results.Aggregate(recs) {
			j, ok := idx[a.Engine]
			if !ok {
				j = len(lines)
				idx[a.Engine] = j
				lines = append(lines, series{name: a.Engine, points: map[int]float64{}})
			}
			lines[j].points[a.Threads] = value(a)
		}
		fmt.Fprintln(r.out, formatFigure(p.title, metric, r.threads, lines))
	}
}

// renderFig3 prints SwissTM's speedup − 1 over TL2 and over TinySTM per
// STAMP application and thread count.
func renderFig3(r run) {
	agg := aggIndex(r.recs)
	for _, baseline := range []struct{ kind, engine string }{{"tl2", "TL2"}, {"tinystm", "TinySTM"}} {
		fmt.Fprintf(r.out, "# Figure 3: SwissTM vs %s on STAMP (speedup - 1; positive = SwissTM faster)\n", baseline.kind)
		fmt.Fprintf(r.out, "%-16s", "workload")
		for _, tc := range r.threads {
			fmt.Fprintf(r.out, "%10dthr", tc)
		}
		fmt.Fprintln(r.out)
		for _, p := range r.pts {
			fmt.Fprintf(r.out, "%-16s", p.title)
			for _, tc := range r.threads {
				swiss := agg[fmt.Sprintf("%s|SwissTM|%d", p.workload, tc)]
				base := agg[fmt.Sprintf("%s|%s|%d", p.workload, baseline.engine, tc)]
				if swiss.Duration.Median <= 0 || tc > swiss.Cores {
					fmt.Fprintf(r.out, "%13s", "-")
					continue
				}
				fmt.Fprintf(r.out, "%13.2f", base.Duration.Median/swiss.Duration.Median-1)
			}
			fmt.Fprintln(r.out)
		}
		fmt.Fprintln(r.out)
	}
}

// renderFig12 prints the speedup − 1 of SwissTM's two-phase CM over
// timid, one series per STMBench7 mix.
func renderFig12(r run) {
	agg := aggIndex(r.recs)
	lines := []series{}
	for _, p := range r.pts {
		s := series{name: p.title, points: map[int]float64{}}
		for _, tc := range r.threads {
			two := agg[fmt.Sprintf("%s|SwissTM|%d", p.workload, tc)]
			timid := agg[fmt.Sprintf("%s|SwissTM(timid)|%d", p.workload, tc)]
			if timid.Throughput.Median > 0 && tc <= two.Cores {
				s.points[tc] = two.Throughput.Median/timid.Throughput.Median - 1
			}
		}
		lines = append(lines, s)
	}
	fmt.Fprintln(r.out, formatFigure("Figure 12: two-phase vs timid CM speedup-1 (SwissTM), STMBench7",
		"speedup - 1", r.threads, lines))
}

// merit is granularity g's figure of merit on p (higher = better):
// throughput, or 1/duration for fixed work.
func merit(agg map[string]results.Agg, p point, g uint, threads int) float64 {
	a := agg[fmt.Sprintf("%s|%s|%d", p.workload, granLabel(g), threads)]
	if p.work == nil {
		return a.Throughput.Median
	}
	if a.Duration.Median <= 0 {
		return 0
	}
	return 1 / a.Duration.Median
}

// renderFig13 prints each lock granularity's average speedup − 1 against
// all the others, across all benchmarks.
func renderFig13(r run) {
	agg, threads := aggIndex(r.recs), r.threads[0]
	fmt.Fprintf(r.out, "# Figure 13: average speedup-1 per lock granularity vs all others (%d threads, %d cores)\n", threads, r.recs[0].Cores)
	fmt.Fprintf(r.out, "# granularity axis: words/stripe (paper: 2^2..2^8 bytes at 4B words; here 64-bit words)\n")
	fmt.Fprintf(r.out, "%-18s%14s\n", "words/stripe", "avg speedup-1")
	for _, g := range granularities {
		sum := 0.0
		for _, p := range r.pts {
			others := []float64{}
			for _, g2 := range granularities {
				if g2 != g {
					others = append(others, merit(agg, p, g2, threads))
				}
			}
			sum += meanSpeedup(merit(agg, p, g, threads), others)
		}
		fmt.Fprintf(r.out, "%-18d%14s\n", 1<<g, speedupCell(sum/float64(len(r.pts)), 3, r.recs[0]))
	}
	fmt.Fprintln(r.out)
}

// renderTable1 prints each design-choice combination's throughput.
func renderTable1(r run) {
	fmt.Fprintf(r.out, "# Table 1: design-choice combinations on read-write STMBench7 (%d threads)\n", r.threads[0])
	fmt.Fprintf(r.out, "%-36s%16s\n", "acquire/reads/CM", "throughput tx/s")
	for _, a := range results.Aggregate(r.recs) {
		fmt.Fprintf(r.out, "%-36s%16.1f\n", a.Engine, a.Throughput.Median)
	}
	fmt.Fprintln(r.out)
}

// renderTable2 prints the per-benchmark speedups − 1 between 4, 1 and 16
// words per stripe, and their average.
func renderTable2(r run) {
	agg, threads := aggIndex(r.recs), r.threads[0]
	fmt.Fprintf(r.out, "# Table 2: lock granularity comparison (%d threads, %d cores; speedup-1)\n", threads, r.recs[0].Cores)
	fmt.Fprintf(r.out, "%-22s%12s%12s%12s\n", "benchmark", "4w vs 1w", "4w vs 16w", "1w vs 16w")
	row := func(name string, c [3]float64) {
		fmt.Fprintf(r.out, "%-22s", name)
		for _, v := range c {
			fmt.Fprintf(r.out, "%12s", speedupCell(v, 2, r.recs[0]))
		}
		fmt.Fprintln(r.out)
	}
	ratio := func(a, b float64) float64 { return meanSpeedup(a, []float64{b}) }
	means := [3]float64{}
	for _, p := range r.pts {
		v1, v4, v16 := merit(agg, p, 0, threads), merit(agg, p, 2, threads), merit(agg, p, 4, threads)
		c := [3]float64{ratio(v4, v1), ratio(v4, v16), ratio(v1, v16)}
		for i := range means {
			means[i] += c[i] / float64(len(r.pts))
		}
		row(p.title, c)
	}
	row("Average", means)
	fmt.Fprintln(r.out)
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

// meanSpeedup is the arithmetic mean of mine's speedups − 1 over each
// positive merit in others (Figure 13's average of one configuration
// against the others); 0 when there is none.
func meanSpeedup(mine float64, others []float64) float64 {
	sum, n := 0.0, 0
	for _, o := range others {
		if o > 0 && mine > 0 {
			sum += mine/o - 1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// series is one line of a figure: a metric per thread count.
type series struct {
	name   string
	points map[int]float64
}

// formatFigure renders lines as the paper's figures' data: one row per
// thread count (marked * above this host's cores), one column per series.
func formatFigure(title, metric string, threadCounts []int, lines []series) string {
	var b strings.Builder
	cores, note := runtime.GOMAXPROCS(0), ""
	fmt.Fprintf(&b, "# %s\n# metric: %s\n", title, metric)
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, s := range lines {
		fmt.Fprintf(&b, "%22s", s.name)
	}
	b.WriteByte('\n')
	for _, tc := range threadCounts {
		label := fmt.Sprint(tc)
		if tc > cores {
			label += "*"
			note = fmt.Sprintf("# * more threads than this host's %d cores: oversubscribed, not a scaling point\n", cores)
		}
		fmt.Fprintf(&b, "%-8s", label)
		for _, s := range lines {
			v, ok := s.points[tc]
			if !ok {
				fmt.Fprintf(&b, "%22s", "-")
				continue
			}
			fmt.Fprintf(&b, "%22.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String() + note
}
