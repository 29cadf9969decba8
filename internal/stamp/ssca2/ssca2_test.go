package ssca2_test

import (
	"testing"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/stamp"
)

// run runs the STAMP workload name once at Test scale through the
// harness the experiments use: a fresh engine of kind (harness.Kinds is
// the paper's line-up; ssca2 is written against the object API, like every
// STAMP app, so it runs on RSTM too), threads workers, the given base
// seed, and the app's oracle as the run's check.
func run(t *testing.T, name, kind string, threads int, seed uint64) results.Record {
	t.Helper()
	recs, err := harness.RepeatWork(harness.EngineSpec{Kind: kind, ArenaWords: 1 << 21},
		stamp.WorkSpec(name, stamp.Test, threads), harness.RunConfig{Threads: threads, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return recs[0]
}

// TestCorrectness runs ssca2 (graph kernel construction) at Test scale
// on every engine, sequentially and with 4 workers; Check validates the
// constructed adjacency structure against the sequential oracle.
func TestCorrectness(t *testing.T) {
	for _, kind := range harness.Kinds {
		for _, threads := range []int{1, 4} {
			t.Run(kind+"/"+map[int]string{1: "seq", 4: "par"}[threads], func(t *testing.T) {
				if run(t, "ssca2", kind, threads, 1).Commits == 0 {
					t.Fatal("no transactions committed")
				}
			})
		}
	}
}

// TestRepeatedRunsAgree runs ssca2 twice on one engine and checks the
// commit totals agree on one thread: the workload's task partitioning is
// deterministic, so sequential commit counts must reproduce.
func TestRepeatedRunsAgree(t *testing.T) {
	if a, b := run(t, "ssca2", "swisstm", 1, 1).Commits, run(t, "ssca2", "swisstm", 1, 1).Commits; a != b {
		t.Fatalf("sequential commit counts differ: %d vs %d", a, b)
	}
}
