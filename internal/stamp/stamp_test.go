package stamp

import (
	"testing"

	"swisstm/internal/harness"
)

// wordEngines are the engines the STAMP figures run on, as in the paper
// (§4, footnote 4: RSTM's object API is incompatible).
var wordEngines = []string{"swisstm", "tl2", "tinystm"}

// run runs workload name at Test scale once through the harness the
// experiments use, with threads workers on a fresh engine of kind, and
// returns the run's commits; the app's oracle is the run's check.
func run(t *testing.T, name, kind string, threads int) uint64 {
	t.Helper()
	recs, err := harness.RepeatWork(harness.EngineSpec{Kind: kind, ArenaWords: 1 << 21},
		WorkSpec(name, Test, threads), harness.RunConfig{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return recs[0].Commits
}

// TestAllWorkloadsSequential runs every workload at Test scale with one
// worker on every engine and validates its oracle.
func TestAllWorkloadsSequential(t *testing.T) {
	for _, name := range Workloads {
		for _, kind := range wordEngines {
			t.Run(name+"/"+kind, func(t *testing.T) {
				if run(t, name, kind, 1) == 0 {
					t.Fatal("no transactions committed")
				}
			})
		}
	}
}

// TestAllWorkloadsParallel runs every workload with 4 workers on SwissTM
// and TinySTM (the eager engines exercise the kill/retry paths hardest).
func TestAllWorkloadsParallel(t *testing.T) {
	for _, name := range Workloads {
		for _, kind := range wordEngines {
			t.Run(name+"/"+kind, func(t *testing.T) {
				run(t, name, kind, 4)
			})
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := New("nope", Test); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}
