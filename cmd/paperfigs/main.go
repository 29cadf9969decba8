// Command paperfigs regenerates the figures and tables of "Stretching
// Transactional Memory" (PLDI 2009), plus the repository's own txkv
// key-value-store experiment family (DESIGN.md §6). Each experiment
// prints the series the corresponding figure plots (see DESIGN.md §4
// for the mapping); -out DIR also writes the underlying per-repeat
// measurement records and their summary as a CSV pair per experiment,
// <name>.csv and <name>.summary.csv (DESIGN.md §5). Every run is seeded
// (-seed, default 0); -ops sets a fixed per-worker op quota for the
// throughput points, which are otherwise timed over -dur.
//
// Usage:
//
//	paperfigs -list
//	paperfigs -run fig2 -dur 2s -threads 1,2,4,8
//	paperfigs -run all -quick
//	paperfigs -run fig2 -quick -repeats 3 -out paper_runs/smoke
//	paperfigs -run fig5 -quick -seed 42 -ops 2000 -repeats 5 -out runs/seeded
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"swisstm/internal/experiments"
	"swisstm/internal/results"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment to run: fig2..fig13, table1, table2, txkv, or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		quick   = flag.Bool("quick", false, "small inputs and short measurements (smoke run)")
		dur     = flag.Duration("dur", 0, "duration per throughput point (overrides preset)")
		threads = flag.String("threads", "", "comma-separated thread sweep (overrides preset)")
		repeats = flag.Int("repeats", 1, "measured repeats per point (text tables report medians)")
		seed    = flag.Uint64("seed", 0, "base seed of every run's workload RNGs")
		ops     = flag.Uint64("ops", 0, "per-worker op quota per throughput point (0 = timed over -dur)")
		outDir  = flag.String("out", "", "directory for the CSV pair of each experiment (none written when empty)")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.Names {
			fmt.Println(n)
		}
		return
	}
	if *run == "" {
		flag.Usage()
		os.Exit(2)
	}

	opt := experiments.Default(os.Stdout)
	if *quick {
		opt = experiments.Quick(os.Stdout)
	}
	if *dur != 0 {
		opt.Duration = *dur
	}
	if *threads != "" {
		opt.Threads = nil
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "paperfigs: bad thread count %q\n", part)
				os.Exit(2)
			}
			opt.Threads = append(opt.Threads, n)
		}
	}
	opt.Repeats = *repeats
	opt.Seed = *seed
	opt.FixedOps = *ops

	names := []string{*run}
	if *run == "all" {
		names = experiments.Names
	}
	for _, name := range names {
		fmt.Printf("== %s ==\n", name)
		start := time.Now()
		recs, err := opt.Run(name)
		// Persist whatever was measured even when a check failed, so the
		// run directory holds the evidence.
		if *outDir != "" {
			if werr := results.WriteFiles(*outDir, name, recs); werr != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: writing %s results: %v\n", name, werr)
				os.Exit(1)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %v (%d records) --\n\n", name, time.Since(start).Round(time.Millisecond), len(recs))
	}
}
