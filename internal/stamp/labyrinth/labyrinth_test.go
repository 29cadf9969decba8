package labyrinth_test

import (
	"testing"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/stamp"
)

// run runs the STAMP workload name once at Test scale through the
// harness the experiments use: a fresh engine of kind (harness.Kinds is
// the paper's line-up; labyrinth is written against the object API, like every
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

// TestCorrectness runs labyrinth (3-D maze routing with long, big-
// footprint transactions) at Test scale on every engine, sequentially
// and with 4 workers; Check verifies every routed path is connected,
// in-bounds and non-overlapping.
func TestCorrectness(t *testing.T) {
	for _, kind := range harness.Kinds {
		for _, threads := range []int{1, 4} {
			t.Run(kind+"/"+map[int]string{1: "seq", 4: "par"}[threads], func(t *testing.T) {
				if run(t, "labyrinth", kind, threads, 1).Commits == 0 {
					t.Fatal("no transactions committed")
				}
			})
		}
	}
}

// TestParallelContentionRetries runs labyrinth with heavy oversubscription
// on the eager engine: long routing transactions over a shared grid must
// still produce a valid maze when aborts occur.
func TestParallelContentionRetries(t *testing.T) {
	if run(t, "labyrinth", "tinystm", 8, 1).Commits == 0 {
		t.Fatal("no transactions committed")
	}
}
