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

	"swisstm/internal/harness"
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

// WorkSpec adapts workload name at the given scale to the fixed-work
// harness for runs of threads workers: each repeat builds a fresh App,
// and the run is Setup, Bind, Work on every worker, then the app's own
// Check. The experiments and the apps' tests both run STAMP through it.
func WorkSpec(name string, scale Scale, threads int) func(seed uint64) harness.WorkSpec {
	return func(seed uint64) harness.WorkSpec {
		var app App
		return harness.WorkSpec{
			Setup: func(e stm.STM) error {
				var err error
				if app, err = New(name, scale); err != nil {
					return err
				}
				if err := app.Setup(e); err != nil {
					return fmt.Errorf("%s: %w", app.Name(), err)
				}
				app.Bind(threads)
				return nil
			},
			Work: func(e stm.STM, th stm.Thread, worker, t int, rng *util.Rand) {
				app.Work(e, th, worker, t, rng)
			},
			Check: func(e stm.STM) error { return app.Check(e) },
		}
	}
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
