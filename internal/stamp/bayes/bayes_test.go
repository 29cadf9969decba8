package bayes_test

import (
	"testing"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/stamp"
)

// run runs the STAMP workload name once at Test scale through the
// harness the experiments use: a fresh engine of kind (harness.Kinds is
// the paper's line-up; bayes is written against the object API, like every
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

// TestCorrectness runs bayes (structure learning: DFS-heavy proposals
// with cycle checks) at Test scale on every engine, sequentially and
// with 4 workers; Check verifies the learned network recovered the
// hidden ground-truth edges and stayed acyclic.
func TestCorrectness(t *testing.T) {
	for _, kind := range harness.Kinds {
		for _, threads := range []int{1, 4} {
			t.Run(kind+"/"+map[int]string{1: "seq", 4: "par"}[threads], func(t *testing.T) {
				if run(t, "bayes", kind, threads, 1).Commits == 0 {
					t.Fatal("no transactions committed")
				}
			})
		}
	}
}

// TestSeededRunsAgree replays bayes with the same worker seed twice on
// one thread and expects identical commit totals: the proposal stream is
// cursor-partitioned and the RNG stream is derived from the seed.
func TestSeededRunsAgree(t *testing.T) {
	if a, b := run(t, "bayes", "tl2", 1, 77).Commits, run(t, "bayes", "tl2", 1, 77).Commits; a != b {
		t.Fatalf("seeded sequential commit counts differ: %d vs %d", a, b)
	}
}
