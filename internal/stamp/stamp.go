// Package stamp ties together the Go re-implementations of the STAMP 0.9.9
// benchmark suite (Cao Minh et al., IISWC 2008) used in the paper's
// Figure 3 (all ten workloads), Figure 11 (intruder) and Table 2.
//
// Every application preserves its original's transactional access pattern
// — what is read, what is written, how long transactions are, and where
// the contention hot spots sit — while generating its input data
// synthetically with fixed seeds (the original input files are not
// redistributable; see DESIGN.md §2). Each app validates its own output
// against a sequential oracle after the run.
package stamp

import (
	"fmt"
	"sync"

	"swisstm/internal/stamp/bayes"
	"swisstm/internal/stamp/genome"
	"swisstm/internal/stamp/intruder"
	"swisstm/internal/stamp/kmeans"
	"swisstm/internal/stamp/labyrinth"
	"swisstm/internal/stamp/ssca2"
	"swisstm/internal/stamp/vacation"
	"swisstm/internal/stamp/yada"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// App is one STAMP workload instance. Apps are single-use: Setup, then
// Bind with the worker count, then Work from every worker, then Check.
type App interface {
	Name() string
	Setup(e stm.STM) error
	// Bind fixes the worker count before the run (kmeans' barrier and
	// vacation's task channel need it; a no-op elsewhere).
	Bind(threads int)
	// Work is the fixed-work body for one worker (harness.WorkFn shape).
	Work(e stm.STM, th stm.Thread, worker, threads int, rng *util.Rand)
	Check(e stm.STM) error
}

// Run executes one workload on engine e with the given worker count and
// returns the aggregated statistics: Setup, Bind, Work on every worker,
// Check. The STAMP apps' tests drive it; the experiments run the same
// protocol through harness.RepeatWork, which adds repeats and records.
func Run(app App, e stm.STM, threads int) (stm.Stats, error) {
	return RunSeeded(app, e, threads, 0)
}

// RunSeeded is Run with the per-worker RNG streams derived from seed,
// so a seeded run replays the same operation sequences (seed 0 keeps
// the legacy fixed per-worker constants).
func RunSeeded(app App, e stm.STM, threads int, seed uint64) (stm.Stats, error) {
	if err := app.Setup(e); err != nil {
		return stm.Stats{}, fmt.Errorf("%s setup: %w", app.Name(), err)
	}
	app.Bind(threads)
	var wg sync.WaitGroup
	stats := make([]stm.Stats, threads)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			th := e.NewThread(worker + 1)
			app.Work(e, th, worker, threads, util.NewRand(seed^(uint64(worker)*0x9e3779b9+13)))
			stats[worker] = th.Stats()
		}(i)
	}
	wg.Wait()
	var total stm.Stats
	for _, s := range stats {
		total.Add(s)
	}
	if err := app.Check(e); err != nil {
		return total, err
	}
	return total, nil
}

// Scale selects input sizes: Test keeps unit tests fast; Bench is the
// size the experiment drivers use.
type Scale int

const (
	Test Scale = iota
	Bench
)

// Workloads lists the paper's ten STAMP workloads in Figure 3's order.
var Workloads = []string{
	"bayes", "genome", "intruder", "kmeans-high", "kmeans-low",
	"labyrinth", "ssca2", "vacation-high", "vacation-low", "yada",
}

// New constructs a fresh workload instance by name.
func New(name string, scale Scale) (App, error) {
	big := scale == Bench
	switch name {
	case "bayes":
		return bayes.New(big), nil
	case "genome":
		return genome.New(big), nil
	case "intruder":
		return intruder.New(big), nil
	case "kmeans-high":
		return kmeans.New(big, true), nil
	case "kmeans-low":
		return kmeans.New(big, false), nil
	case "labyrinth":
		return labyrinth.New(big), nil
	case "ssca2":
		return ssca2.New(big), nil
	case "vacation-high":
		return vacation.New(big, true), nil
	case "vacation-low":
		return vacation.New(big, false), nil
	case "yada":
		return yada.New(big), nil
	}
	return nil, fmt.Errorf("stamp: unknown workload %q", name)
}
