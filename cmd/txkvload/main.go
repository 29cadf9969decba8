// Command txkvload drives YCSB-style workload mixes against a txkv
// network server over real TCP connections and persists latency-under-
// load measurements in the results schema (DESIGN.md §5, §10): client-
// observed p50/p99/p999, the server's per-request phase timing means
// (parse/queue/txn/commit/reply), and — in open-loop mode — offered vs
// achieved arrival rate plus the late-request count.
//
// Two ways to point it at a server:
//
//   - -launch starts an in-process server per (engine, point) on an
//     ephemeral loopback port — still real TCP end to end — which is
//     what `make smoke-server` and the experiment grid use, and gives
//     every repeat a freshly pre-filled store.
//   - -addr drives an externally started cmd/txkvserver.
//
// Every run arms the over-the-wire correctness oracles (key population
// intact; balance conserved for mixes without blind updates); a failed
// oracle exits non-zero after persisting the evidence.
//
// Usage:
//
//	txkvload -launch -engines swisstm,tl2 -mixes transfer -conns 1,4 -ops 4000 -seed 1
//	txkvload -launch -engines swisstm -mixes read-heavy -conns 4 -rate 5000 -ops 2000
//	txkvload -addr 127.0.0.1:7070 -engines swisstm -mixes update-heavy -conns 8 -ops 10000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", "", "address of an already-running txkvserver (mutually exclusive with -launch)")
		launch   = flag.Bool("launch", false, "launch an in-process server per engine on an ephemeral loopback port")
		engines  = flag.String("engines", "swisstm,tinystm,rstm,tl2", "comma-separated engine kinds (launch mode); label for -addr mode")
		manager  = flag.String("cm", "polka", "RSTM contention manager (launch mode)")
		mixes    = flag.String("mixes", "read-heavy,update-heavy,transfer", "comma-separated workload mixes")
		conns    = flag.String("conns", "2", "comma-separated connection-count sweep")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate in ops/sec (0 = closed loop)")
		ops      = flag.Uint64("ops", 2000, "total operations per measured point")
		keys     = flag.Int("keys", 1024, "key population (server pre-filled with keys 1..n)")
		zipf     = flag.Float64("zipf", 0.99, "zipfian key-popularity skew θ in (0,1); 0 = uniform")
		seed     = flag.Uint64("seed", 1, "base seed for the per-connection RNGs (0 = time-derived)")
		late     = flag.Duration("late", time.Millisecond, "open-loop late-dispatch threshold")
		repeats  = flag.Int("repeats", 1, "measured repeats per point")
		format   = flag.String("format", "text", "output format: text | csv | jsonl")
		outDir   = flag.String("out", "", "directory for result files (default txkvload_runs for csv/jsonl)")
		name     = flag.String("name", "txkvload", "result file base name")
		walDir   = flag.String("wal", "", "launch mode: durable commit log directory for the launched server (a fresh subdirectory per point; off when empty)")
		fsync    = flag.String("fsync", "group", "launch mode: commit log durability, always | group | none")
		timeout  = flag.Duration("timeout", 0, "per-request client deadline (0 = none)")
		retries  = flag.Int("retries", 0, "per-request retry budget for retryable shed replies and transport failures (0 = fail fast)")
		retryMut = flag.Bool("retry-mutations", false, "opt mutations into transport-failure retry (at-least-once)")
		budget   = flag.Duration("budget", 0, "per-request deadline budget propagated to the server as the wire TTL (0 = none)")
		pipeline = flag.Int("pipeline", 0, "per-connection in-flight window; >1 switches the client to pipelined mode (sheds counted, not retried; excludes -timeout, -retries, -retry-mutations)")
		coBatch  = flag.Int("coalesce-batch", 0, "launch mode: per-shard commit coalescing batch size for the launched server (0 = off)")
		coWait   = flag.Duration("coalesce-wait", 200*time.Microsecond, "launch mode: commit coalescing max batch wait for the launched server")
	)
	flag.Parse()
	if !results.KnownFormat(*format) {
		fmt.Fprintf(os.Stderr, "txkvload: unknown format %q (want text, csv or jsonl)\n", *format)
		os.Exit(2)
	}
	if (*addr == "") == !*launch {
		fmt.Fprintln(os.Stderr, "txkvload: give exactly one of -addr or -launch")
		os.Exit(2)
	}
	if *format != "text" && *outDir == "" {
		*outDir = "txkvload_runs"
		fmt.Fprintf(os.Stderr, "txkvload: no -out given; writing %s files to %s/\n", *format, *outDir)
	}
	if *zipf < 0 || *zipf >= 1 {
		fmt.Fprintf(os.Stderr, "txkvload: -zipf %v out of range (want 0 for uniform, or θ in (0,1))\n", *zipf)
		os.Exit(2)
	}
	syncMode, err := wal.ParseSyncMode(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvload:", err)
		os.Exit(2)
	}
	if *pipeline > 1 && (*timeout > 0 || *retries > 0 || *retryMut) {
		fmt.Fprintln(os.Stderr, "txkvload:", txkvclient.ErrPipelineOptions)
		os.Exit(2)
	}
	if (*walDir != "" || *coBatch > 0) && !*launch {
		fmt.Fprintln(os.Stderr, "txkvload: -wal and -coalesce-batch only apply to -launch mode (start the -addr server with them instead)")
		os.Exit(2)
	}

	var specs []harness.EngineSpec
	for _, kind := range splitList(*engines) {
		switch kind {
		case "swisstm", "tl2", "tinystm", "rstm":
			specs = append(specs, harness.EngineSpec{Kind: kind, Manager: *manager})
		default:
			fmt.Fprintf(os.Stderr, "txkvload: unknown engine %q\n", kind)
			os.Exit(2)
		}
	}
	if *addr != "" && len(specs) != 1 {
		fmt.Fprintln(os.Stderr, "txkvload: -addr mode labels records with exactly one -engines entry")
		os.Exit(2)
	}
	var mixList []txkv.Mix
	for _, mname := range splitList(*mixes) {
		m, ok := txkv.MixByName(mname)
		if !ok {
			fmt.Fprintf(os.Stderr, "txkvload: unknown mix %q\n", mname)
			os.Exit(2)
		}
		mixList = append(mixList, m)
	}
	var sweep []int
	for _, part := range splitList(*conns) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "txkvload: bad connection count %q\n", part)
			os.Exit(2)
		}
		sweep = append(sweep, n)
	}

	dist := "uniform"
	if *zipf > 0 {
		dist = "zipf"
	}
	mode := "closed"
	if *rate > 0 {
		mode = "open"
	}

	var all []results.Record
	oracleFailures := 0
	runErr := func() error {
		for _, spec := range specs {
			for _, mix := range mixList {
				wl := fmt.Sprintf("txkvsrv/%s-%s-%s", mix.Name, dist, mode)
				for _, nc := range sweep {
					for rep := 0; rep < *repeats; rep++ {
						target := *addr
						var srv *txkvserver.Server
						if *launch {
							scfg := txkvserver.Config{
								Engine: spec, Keys: *keys,
								CoalesceBatch: *coBatch, CoalesceWait: *coWait,
							}
							if *walDir != "" {
								// A fresh log directory per point: replaying a
								// previous point's log would skew the oracles.
								scfg.WALDir = filepath.Join(*walDir,
									fmt.Sprintf("%s-%s-c%d-r%d", spec.Kind, mix.Name, nc, rep))
								scfg.WALSync = syncMode
							}
							var err error
							srv, err = txkvserver.Start("127.0.0.1:0", scfg)
							if err != nil {
								return fmt.Errorf("%s: launch %s: %w", wl, spec.Kind, err)
							}
							target = srv.Addr().String()
						}
						runSeed := *seed
						if runSeed != 0 {
							runSeed = harness.DeriveSeed(runSeed, spec.Kind+"/"+wl, nc, rep)
						}
						res, err := txkvclient.Run(txkvclient.LoadConfig{
							Addr: target, Mix: mix, Conns: nc,
							Keys: *keys, Zipf: *zipf, Seed: runSeed,
							Ops: *ops, Rate: *rate, LateThreshold: *late,
							Timeout: *timeout, Retries: *retries,
							RetryMutations: *retryMut, Budget: *budget,
							Pipeline: *pipeline,
						})
						if srv != nil {
							srv.Close()
						}
						if err != nil {
							return fmt.Errorf("%s: %w", wl, err)
						}
						rec := res.Record("txkvload", wl, spec.DisplayName(), spec.Kind, nc, rep, runSeed)
						rec.Pipeline, rec.CoalesceBatch = *pipeline, *coBatch
						all = append(all, rec)
						if res.OracleErr != nil {
							oracleFailures++
							fmt.Fprintf(os.Stderr, "txkvload: ORACLE FAILED %s %s conns=%d rep=%d: %v\n",
								spec.Kind, wl, nc, rep, res.OracleErr)
						}
					}
				}
			}
		}
		return nil
	}()
	// Persist whatever was measured even when something failed, so the
	// run directory holds the evidence.
	if *outDir != "" {
		if werr := results.WriteDriverFiles(*outDir, *name, *format, all); werr != nil {
			fmt.Fprintln(os.Stderr, "txkvload:", werr)
			os.Exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "txkvload:", runErr)
		os.Exit(1)
	}
	for _, r := range all {
		fmt.Printf("workload=%s engine=%s conns=%d rep=%d ops=%d tput=%.0f/s p50=%.0fns p99=%.0fns p999=%.0fns srv_p50=%dns srv_p99=%dns srv_p999=%dns aborts=%d(vr=%d vc=%d lk=%d) offered=%.0f achieved=%.0f late=%d checked=%v\n",
			r.Workload, r.Engine, r.Threads, r.Repeat, r.Ops, r.Throughput,
			r.LatP50Ns, r.LatP99Ns, r.LatP999Ns,
			r.SrvP50Ns, r.SrvP99Ns, r.SrvP999Ns,
			r.Aborts, r.AbortsValidRead, r.AbortsValidCommit,
			r.AbortsWW+r.AbortsLocked+r.LockAcquireFail,
			r.OfferedRate, r.AchievedRate, r.LateOps, r.CheckedOK)
		if r.WalFrames > 0 || r.Retries > 0 || r.Reconnects > 0 {
			fmt.Printf("  wal: frames=%d bytes=%d mean_wal=%.0fns recovered=%d retries=%d reconnects=%d\n",
				r.WalFrames, r.WalBytes, r.PhaseWalNs, r.WalRecoveredFrames, r.Retries, r.Reconnects)
		}
		if r.CoalesceBatches > 0 {
			fmt.Printf("  coalesce: batches=%d items=%d commits/op=%.3f fsyncs/op=%.3f feed_events=%d\n",
				r.CoalesceBatches, r.CoalesceItems,
				float64(r.Commits)/float64(r.Ops), float64(r.WalFsyncs)/float64(r.Ops), r.FeedEvents)
		}
	}
	if oracleFailures > 0 {
		fmt.Fprintf(os.Stderr, "txkvload: %d point(s) failed their oracles\n", oracleFailures)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
