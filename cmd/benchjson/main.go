// Command benchjson measures the per-operation hot-path cost (ns/op,
// allocs/op) of the core engine micro-benchmarks — rbtree lookup-heavy,
// STMBench7 read-dominated, txkv read-heavy, the PR 4 abort tier, plus
// the PR 5 ro-fastpath tier — on every engine, and emits a
// machine-readable JSON artifact through internal/results. CI runs it non-gating (`make bench-json`) so the
// perf trajectory accumulates one BENCH_PR<n>.json per change; compare
// two artifacts with `make bench-compare` (or benchstat two
// `go test -bench` runs, README § Performance) to price a PR.
//
// The abort tier targets the quantity this repo's panic-free abort
// refactor changes (DESIGN.md §8):
//
//   - abort-forced drives stmtest.ForcedAbort — exactly one
//     deterministic commit-time abort per op — on each engine twice:
//     once normal (checked-return delivery) and once under the
//     UnwindAborts ablation (the old panic/recover delivery). The pair
//     of ns_per_abort values is the before/after price of one abort.
//   - abort-heavy is a high-contention mix over a tiny object pool
//     (every transaction writes; an injected conflicting transaction
//     lands mid-body), reporting the realistic aborts_per_op blend of
//     unwound and returned deliveries.
//
// The ro-fastpath tier prices the declared read-only mode of the v2 API
// (DESIGN.md §9): each engine runs the 100%-read txkv stream and the
// 100%-read-only STMBench7 mix twice — once through stm.AtomicRO (the
// declared fast path) and once through plain stm.Atomic (the "(plain)"
// twin) — so the artifact holds the ablation pair side by side.
//
// The obs tier prices the per-transaction telemetry (DESIGN.md §11):
// each engine runs the txkv read and update streams twice — once bare
// and once with a TxnObs armed (the "(obs)" twin), which records the
// retry-count and read/write-set-size histograms on every commit. The
// contract is 0 allocs/op with instrumentation on; the ns/op delta is
// a few ns per commit — single-digit percent on the leanest engines
// (measured numbers in DESIGN.md §11.4).
//
// The wal tier prices the durable commit log (DESIGN.md §12): each
// engine runs the zipf txkv update stream three ways — bare, with a
// "(wal-none)" twin that appends a RedoPut frame per committed put
// through the real log writer in fsync-none mode (the pure append-path
// cost: encode + ticket + buffered write, no durability wait), and a
// "(wal-group)" twin under group fsync whose rows carry the writer's
// own append/fsync latency quantiles (wal_append_p99_ns is the
// acked-write durability wait). The ≤15% target in ISSUE 8 compares
// the (wal-none) twin against the bare row.
//
// The coalesce tier prices per-shard commit coalescing at the service
// level (DESIGN.md §14): per engine, an in-process server with the
// commit log in group-fsync mode is driven by the pipelined open-loop
// load generator at a fixed offered rate, once with coalescing off and
// once with batch 32 — the "(coalesce)" twin. Its rows report
// commits_per_op and fsyncs_per_op, the amortization ratios: the
// coalesced twin folds many single-key ops into one engine commit and
// one log frame, so both drop at equal offered load.
//
// Measurements run single-goroutine via testing.Benchmark: the point is
// per-access overhead — the quantity the paper's §3 design choices
// minimize — not parallel scalability, which the figure experiments and
// the structured results pipeline already cover. The abort workloads
// inject their conflicting transactions from a second engine thread on
// the same goroutine, so conflict schedules are exact, not racy.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"swisstm/internal/bench7"
	"swisstm/internal/coalesce"
	"swisstm/internal/harness"
	"swisstm/internal/obs"
	"swisstm/internal/rbtree"
	"swisstm/internal/results"
	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/util"
	"swisstm/internal/wal"
)

var (
	out     = flag.String("out", "BENCH_PR10.json", "output JSON path")
	repeats = flag.Int("repeats", 5, "repeats per benchmark (median reported)")
	benchMs = flag.Int("benchms", 300, "target measurement time per repeat, milliseconds")
	run     = flag.String("run", "", "regexp selecting workload names (empty = all)")
)

// defaultEngines is the standard sweep: the three word-based engines
// plus object-based RSTM (which runs the object-API workloads only —
// same coverage as the paper's figures).
var defaultEngines = []harness.EngineSpec{
	{Kind: "swisstm"},
	{Kind: "tl2"},
	{Kind: "tinystm"},
	{Kind: "rstm", Manager: "polka", Label: "RSTM"},
}

// abortEngines pairs each engine with its UnwindAborts ablation twin, so
// one artifact holds the checked-return and panic-delivery costs side by
// side. Back-off is pinned to the minimum: the abort path, not the
// retry policy, is the measurand.
func abortEngines() []harness.EngineSpec {
	specs := make([]harness.EngineSpec, 0, 8)
	for _, s := range defaultEngines {
		s.NoBackoff = true
		s.BackoffUnit = 1
		checked := s
		specs = append(specs, checked)
		unwind := s
		unwind.UnwindAborts = true
		unwind.Label = s.DisplayName() + "(unwind)"
		specs = append(specs, unwind)
	}
	return specs
}

// roEngines pairs each engine with a plain-Atomic twin: the "(plain)"
// label routes the same read-only operation stream through the
// read-write machinery, so one artifact prices the declared read-only
// mode (DESIGN.md §9.3) per engine.
func roEngines() []harness.EngineSpec {
	specs := make([]harness.EngineSpec, 0, 8)
	for _, s := range defaultEngines {
		specs = append(specs, s)
		plain := s
		plain.Label = s.DisplayName() + "(plain)"
		specs = append(specs, plain)
	}
	return specs
}

// plainTwin reports whether spec is a ro-fastpath plain-Atomic twin.
func plainTwin(spec harness.EngineSpec) bool {
	return strings.HasSuffix(spec.DisplayName(), "(plain)")
}

// obsEngines pairs each engine with a telemetry-armed twin: the "(obs)"
// label makes setup wire a fresh obs.TxnObs into the engine instance,
// so one artifact prices the instrumented hot path against the bare one.
func obsEngines() []harness.EngineSpec {
	specs := make([]harness.EngineSpec, 0, 8)
	for _, s := range defaultEngines {
		specs = append(specs, s)
		armed := s
		armed.Label = s.DisplayName() + "(obs)"
		specs = append(specs, armed)
	}
	return specs
}

// obsTwin reports whether spec is a telemetry-armed obs twin.
func obsTwin(spec harness.EngineSpec) bool {
	return strings.HasSuffix(spec.DisplayName(), "(obs)")
}

// walEngines triples each engine: bare, a "(wal-none)" twin that
// appends a redo frame per committed update without waiting for
// durability, and a "(wal-group)" twin that waits out group fsync.
func walEngines() []harness.EngineSpec {
	specs := make([]harness.EngineSpec, 0, 12)
	for _, s := range defaultEngines {
		specs = append(specs, s)
		none := s
		none.Label = s.DisplayName() + "(wal-none)"
		specs = append(specs, none)
		group := s
		group.Label = s.DisplayName() + "(wal-group)"
		specs = append(specs, group)
	}
	return specs
}

// walSync maps a wal-tier twin to its sync mode; ok is false for the
// bare row.
func walSync(spec harness.EngineSpec) (wal.SyncMode, bool) {
	name := spec.DisplayName()
	switch {
	case strings.HasSuffix(name, "(wal-none)"):
		return wal.SyncNone, true
	case strings.HasSuffix(name, "(wal-group)"):
		return wal.SyncGroup, true
	}
	return 0, false
}

// walFinish, when set by a workload's setup, folds run-wide extras —
// the log writer's latency quantiles — into the finished record and
// releases the writer's temp directory. Reset before every setup; the
// tool is single-goroutine so a package variable is safe.
var walFinish func(*results.BenchRecord)

// armObs gives the spec its own TxnObs when it is an obs twin. Specs
// are value copies, so each benchmark instance gets a private one.
func armObs(spec harness.EngineSpec) harness.EngineSpec {
	if obsTwin(spec) {
		spec.TxnObs = obs.NewTxnObs()
	}
	return spec
}

// abortShape maps an engine kind to the commit-time conflict class its
// design detects (see stmtest.AbortShape).
func abortShape(kind string) stmtest.AbortShape {
	switch kind {
	case "tl2":
		return stmtest.ShapeLockAcquire
	case "rstm":
		return stmtest.ShapeObjectValidation
	default:
		return stmtest.ShapeReadValidation
	}
}

type workload struct {
	name string
	// engines overrides the default engine sweep when non-nil.
	engines []harness.EngineSpec
	// setup builds shared state and returns the per-iteration op plus a
	// snapshot function over the stats of every thread the op drives.
	setup func(spec harness.EngineSpec) (op func(), stats func() stm.Stats)
}

func workloads() []workload {
	return []workload{
		{name: "rbtree-lookup", setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
			e := spec.New()
			th := e.NewThread(0)
			tree := rbtree.New(th)
			rng := util.NewRand(3)
			for i := 0; i < 2048; i++ {
				k := stm.Word(rng.Intn(4096) + 1)
				stm.AtomicVoid(th, func(tx stm.Tx) { tree.Insert(tx, k, k) })
			}
			var k stm.Word
			lookup := func(tx stm.TxRO) stm.Word { v, _ := tree.Lookup(tx, k); return v }
			insert := func(tx stm.Tx) bool { return tree.Insert(tx, k, k) }
			del := func(tx stm.Tx) bool { return tree.Delete(tx, k) }
			return func() {
				k = stm.Word(rng.Intn(4096) + 1)
				switch c := rng.Intn(100); {
				case c < 5:
					stm.Atomic(th, insert)
				case c < 10:
					stm.Atomic(th, del)
				default:
					stm.AtomicRO(th, lookup)
				}
			}, th.Stats
		}},
		{name: "bench7-read", setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
			cfg := bench7.Config{
				Levels: 3, Fanout: 3, CompPool: 32,
				AtomicPerComp: 10, ReadOnlyPct: 90,
			}
			e := spec.New()
			b := bench7.Setup(e, cfg)
			th := e.NewThread(1)
			ops := b.NewOps(th, util.NewRand(99))
			return ops.Op, th.Stats
		}},
		{name: "txkv-read", setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
			e := spec.New()
			th := e.NewThread(0)
			s := txkv.New(th, txkv.ConfigForKeys(4096))
			for k := 1; k <= 4096; k++ {
				kk := stm.Word(k)
				stm.AtomicVoid(th, func(tx stm.Tx) { s.Put(tx, kk, kk) })
			}
			zipf := util.NewZipf(4096, 0.99)
			rng := util.NewRand(977)
			var k stm.Word
			get := func(tx stm.TxRO) stm.Word { v, _ := s.Get(tx, k); return v }
			return func() {
				k = stm.Word(zipf.Next(rng) + 1)
				stm.AtomicRO(th, get)
			}, th.Stats
		}},
		{name: "obs-txkv-read", engines: obsEngines(),
			setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
				e := armObs(spec).New()
				th := e.NewThread(0)
				s := txkv.New(th, txkv.ConfigForKeys(4096))
				for k := 1; k <= 4096; k++ {
					kk := stm.Word(k)
					stm.AtomicVoid(th, func(tx stm.Tx) { s.Put(tx, kk, kk) })
				}
				zipf := util.NewZipf(4096, 0.99)
				rng := util.NewRand(977)
				var k stm.Word
				get := func(tx stm.TxRO) stm.Word { v, _ := s.Get(tx, k); return v }
				return func() {
					k = stm.Word(zipf.Next(rng) + 1)
					stm.AtomicRO(th, get)
				}, th.Stats
			}},
		{name: "obs-txkv-update", engines: obsEngines(),
			setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
				e := armObs(spec).New()
				th := e.NewThread(0)
				s := txkv.New(th, txkv.ConfigForKeys(4096))
				for k := 1; k <= 4096; k++ {
					kk := stm.Word(k)
					stm.AtomicVoid(th, func(tx stm.Tx) { s.Put(tx, kk, kk) })
				}
				zipf := util.NewZipf(4096, 0.99)
				rng := util.NewRand(1201)
				var k, v stm.Word
				put := func(tx stm.Tx) bool { return s.Put(tx, k, v) }
				return func() {
					k = stm.Word(zipf.Next(rng) + 1)
					v++
					stm.Atomic(th, put)
				}, th.Stats
			}},
		{name: "wal-txkv-update", engines: walEngines(),
			setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
				e := spec.New()
				th := e.NewThread(0)
				s := txkv.New(th, txkv.ConfigForKeys(4096))
				for k := 1; k <= 4096; k++ {
					kk := stm.Word(k)
					stm.AtomicVoid(th, func(tx stm.Tx) { s.Put(tx, kk, kk) })
				}
				zipf := util.NewZipf(4096, 0.99)
				rng := util.NewRand(1201)
				var k, v stm.Word
				put := func(tx stm.Tx) bool { return s.Put(tx, k, v) }
				mode, withWal := walSync(spec)
				if !withWal {
					return func() {
						k = stm.Word(zipf.Next(rng) + 1)
						v++
						stm.Atomic(th, put)
					}, th.Stats
				}
				dir, err := os.MkdirTemp("", "benchwal-")
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchjson:", err)
					os.Exit(1)
				}
				m := wal.NewMetrics(obs.NewRegistry())
				w, err := wal.Open(wal.Options{Dir: dir, Sync: mode, Metrics: m})
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchjson:", err)
					os.Exit(1)
				}
				walFinish = func(rec *results.BenchRecord) {
					ap := m.AppendNs.Snapshot()
					fy := m.FsyncNs.Snapshot()
					rec.WalAppendP50Ns = ap.Quantile(0.50)
					rec.WalAppendP99Ns = ap.Quantile(0.99)
					rec.WalFsyncP99Ns = fy.Quantile(0.99)
					w.Close()
					os.RemoveAll(dir)
				}
				// The server's commit scope (DESIGN.md §12.2): what a
				// logged Put costs on top of the engine transaction.
				cm := coalesce.NewCommit(s, w, nil)
				putTk := func(tx stm.Tx) bool {
					cm.Begin()
					ok := cm.Put(tx, k, v)
					cm.Reserve()
					return ok
				}
				return func() {
					k = stm.Word(zipf.Next(rng) + 1)
					v++
					stm.Atomic(th, putTk)
					if _, err := cm.Publish(); err != nil {
						fmt.Fprintln(os.Stderr, "benchjson: wal publish:", err)
						os.Exit(1)
					}
				}, th.Stats
			}},
		{name: "ro-fastpath-txkv", engines: roEngines(),
			setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
				e := spec.New()
				th := e.NewThread(0)
				s := txkv.New(th, txkv.ConfigForKeys(4096))
				for k := 1; k <= 4096; k++ {
					kk := stm.Word(k)
					stm.AtomicVoid(th, func(tx stm.Tx) { s.Put(tx, kk, kk) })
				}
				zipf := util.NewZipf(4096, 0.99)
				rng := util.NewRand(977)
				var k stm.Word
				getRO := func(tx stm.TxRO) stm.Word { v, _ := s.Get(tx, k); return v }
				getRW := func(tx stm.Tx) stm.Word { v, _ := s.Get(tx, k); return v }
				if plainTwin(spec) {
					return func() {
						k = stm.Word(zipf.Next(rng) + 1)
						stm.Atomic(th, getRW)
					}, th.Stats
				}
				return func() {
					k = stm.Word(zipf.Next(rng) + 1)
					stm.AtomicRO(th, getRO)
				}, th.Stats
			}},
		{name: "ro-fastpath-bench7", engines: roEngines(),
			setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
				cfg := bench7.Config{
					Levels: 3, Fanout: 3, CompPool: 32,
					AtomicPerComp: 10, ReadOnlyPct: 100,
					PlainReads: plainTwin(spec),
				}
				e := spec.New()
				b := bench7.Setup(e, cfg)
				th := e.NewThread(1)
				ops := b.NewOps(th, util.NewRand(420))
				return ops.Op, th.Stats
			}},
		{name: "abort-forced", engines: abortEngines(),
			setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
				spec.ArenaWords = 1 << 12
				spec.TableBits = 10
				fa := stmtest.NewForcedAbort(spec.New(), abortShape(spec.Kind))
				return fa.Op, fa.Stats
			}},
		{name: "abort-heavy", engines: abortEngines(),
			setup: func(spec harness.EngineSpec) (func(), func() stm.Stats) {
				spec.ArenaWords = 1 << 12
				spec.TableBits = 10
				return setupAbortHeavy(spec.New())
			}},
	}
}

// setupAbortHeavy builds the high-contention 100%-write mix: a pool of
// 8 single-field objects; the victim reads two and updates two per
// transaction while a conflicting updater transaction is injected
// mid-body from a second thread (same goroutine, exact interleaving).
// The injected writer commits before the victim resumes, so the victim
// aborts on read validation — mid-body (unwound) when the conflict
// surfaces at its second read, at commit (returned) otherwise — and the
// retry runs conflict-free. No transaction ever waits on a suspended
// lock holder, so the schedule cannot wedge under any CM.
func setupAbortHeavy(e stm.STM) (func(), func() stm.Stats) {
	thA := e.NewThread(stm.MaxThreads - 1)
	thB := e.NewThread(stm.MaxThreads - 2)
	const pool = 8
	var objs [pool]stm.Handle
	stm.AtomicVoid(thA, func(tx stm.Tx) {
		for i := range objs {
			objs[i] = tx.NewObject(1)
		}
	})
	rng := util.NewRand(0xab0a7)
	inject := false
	var r [6]int
	bump := func(tx stm.Tx) {
		tx.WriteField(objs[r[4]], 0, tx.ReadField(objs[r[4]], 0)+1)
		tx.WriteField(objs[r[5]], 0, tx.ReadField(objs[r[5]], 0)+1)
	}
	body := func(tx stm.Tx) {
		v := tx.ReadField(objs[r[0]], 0)
		if inject {
			inject = false
			stm.AtomicVoid(thB, bump)
		}
		v += tx.ReadField(objs[r[1]], 0)
		tx.WriteField(objs[r[2]], 0, v)
		tx.WriteField(objs[r[3]], 0, v+1)
	}
	stats := func() stm.Stats {
		s := thA.Stats()
		s.Add(thB.Stats())
		return s
	}
	return func() {
		for i := range r {
			r[i] = rng.Intn(pool)
		}
		inject = true
		stm.AtomicVoid(thA, body)
	}, stats
}

// coalesceTier measures the commit-coalescing amortization at the
// service level: a real server over TCP per (engine, batch) twin, the
// pipelined open-loop load at a fixed offered rate, and the engine
// commit / log fsync counter deltas divided by completed operations.
// NsPerOp carries the client-observed p50 from scheduled arrival — the
// fair per-op latency at equal offered load.
func coalesceTier(sel *regexp.Regexp, repeats int) []results.BenchRecord {
	const name = "coalesce-service"
	if !sel.MatchString(name) {
		return nil
	}
	var recs []results.BenchRecord
	for _, spec := range defaultEngines {
		for _, batch := range []int{0, 32} {
			label := spec.DisplayName()
			if batch > 0 {
				label += "(coalesce)"
			}
			var p50s, commits, fsyncs []float64
			opsRun := 0
			for r := 0; r < repeats; r++ {
				res, err := runCoalescePoint(spec, batch, uint64(r+1))
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchjson: coalesce tier %s: %v\n", label, err)
					os.Exit(1)
				}
				p50s = append(p50s, res.P50Ns)
				commits = append(commits, float64(res.Server.Commits)/float64(res.Ops))
				fsyncs = append(fsyncs, float64(res.Server.WalFsyncs)/float64(res.Ops))
				opsRun = int(res.Ops)
			}
			rec := results.BenchRecord{
				Name:         name + "/" + label,
				Workload:     name,
				Engine:       label,
				EngineKind:   spec.Kind,
				Ops:          opsRun,
				NsPerOp:      median(p50s),
				CommitsPerOp: median(commits),
				FsyncsPerOp:  median(fsyncs),
				Repeats:      repeats,
			}
			recs = append(recs, rec)
			fmt.Printf("%-36s %10.1f ns/op %8.3f commits/op %8.3f fsyncs/op\n",
				rec.Name, rec.NsPerOp, rec.CommitsPerOp, rec.FsyncsPerOp)
		}
	}
	return recs
}

// runCoalescePoint is one coalesce-tier measurement: a fresh server
// with the durable log in group-fsync mode, driven update-heavy at the
// tier's fixed offered rate over pipelined connections.
func runCoalescePoint(spec harness.EngineSpec, batch int, seed uint64) (txkvclient.Result, error) {
	dir, err := os.MkdirTemp("", "benchcoalesce-")
	if err != nil {
		return txkvclient.Result{}, err
	}
	defer os.RemoveAll(dir)
	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine: spec, Keys: 1024,
		WALDir: dir, WALSync: wal.SyncGroup,
		Pipeline: 32, CoalesceBatch: batch, CoalesceWait: time.Millisecond,
	})
	if err != nil {
		return txkvclient.Result{}, err
	}
	defer srv.Close()
	// The point is amortization at equal offered load: a rate both
	// twins sustain, a gather window (1ms) long enough that the
	// coalesced twin's log frames arrive sparser than the group-fsync
	// cadence. The uncoalesced twin publishes one frame per write and
	// keeps the syncer saturated; the coalesced twin folds a batch into
	// one commit and one frame, so both ratios drop.
	res, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr: srv.Addr().String(), Mix: txkv.UpdateHeavy, Conns: 4,
		Keys: 1024, Ops: 8000, Rate: 20000, Seed: seed,
		Pipeline: 32, LateThreshold: time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	if res.OracleErr != nil {
		return res, fmt.Errorf("oracle: %w", res.OracleErr)
	}
	return res, nil
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func main() {
	testing.Init() // registers test.* flags so benchtime is settable
	flag.Parse()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dms", *benchMs)); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	sel, err := regexp.Compile(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: bad -run regexp:", err)
		os.Exit(2)
	}
	var recs []results.BenchRecord
	for _, wl := range workloads() {
		if !sel.MatchString(wl.name) {
			continue
		}
		engines := wl.engines
		if engines == nil {
			engines = defaultEngines
		}
		for _, spec := range engines {
			walFinish = nil
			op, stats := wl.setup(spec)
			var ns, allocs, bytes, aborts, roCommits, valReads []float64
			ops := 0
			for r := 0; r < *repeats; r++ {
				before := stats()
				// testing.Benchmark calls the function several times while
				// calibrating b.N; count every iteration so the stat
				// deltas divide by what actually ran, not just the final N.
				var iters uint64
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						op()
					}
					iters += uint64(b.N)
				})
				after := stats()
				ns = append(ns, float64(res.NsPerOp()))
				allocs = append(allocs, float64(res.AllocsPerOp()))
				bytes = append(bytes, float64(res.AllocedBytesPerOp()))
				aborts = append(aborts, float64(after.Aborts-before.Aborts)/float64(iters))
				roCommits = append(roCommits, float64(after.ROCommits-before.ROCommits)/float64(iters))
				valReads = append(valReads, float64(after.ValidationReads-before.ValidationReads)/float64(iters))
				ops = res.N
			}
			rec := results.BenchRecord{
				Name:                 wl.name + "/" + spec.DisplayName(),
				Workload:             wl.name,
				Engine:               spec.DisplayName(),
				EngineKind:           spec.Kind,
				Ops:                  ops,
				NsPerOp:              median(ns),
				AllocsPerOp:          median(allocs),
				BytesPerOp:           median(bytes),
				AbortsPerOp:          median(aborts),
				ROCommitsPerOp:       median(roCommits),
				ValidationReadsPerOp: median(valReads),
				Repeats:              *repeats,
			}
			if rec.AbortsPerOp > 0 {
				rec.NsPerAbort = rec.NsPerOp / rec.AbortsPerOp
			}
			if walFinish != nil {
				walFinish(&rec)
			}
			recs = append(recs, rec)
			fmt.Printf("%-36s %10.1f ns/op %8.2f allocs/op %8.3f aborts/op\n",
				rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.AbortsPerOp)
		}
	}
	recs = append(recs, coalesceTier(sel, *repeats)...)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := results.WriteBenchJSON(f, recs); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
