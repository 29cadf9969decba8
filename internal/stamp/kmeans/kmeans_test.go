package kmeans_test

import (
	"testing"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/stamp"
)

// run runs the STAMP workload name once at Test scale through the
// harness the experiments use: a fresh engine of kind (harness.Kinds is
// the paper's line-up; kmeans is written against the object API, like every
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

// TestVariantsDiffer checks the contention knob: the high-contention
// variant must use fewer clusters than the low-contention one.
func TestVariantsDiffer(t *testing.T) {
	hi, err := stamp.New("kmeans-high", stamp.Test)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := stamp.New("kmeans-low", stamp.Test)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Name() != "kmeans-high" || lo.Name() != "kmeans-low" {
		t.Fatalf("variant names wrong: %q, %q", hi.Name(), lo.Name())
	}
}

// TestCorrectness runs both kmeans variants at Test scale on every
// engine, sequentially and with 4 workers, validating the clustering
// against the app's sequential oracle.
func TestCorrectness(t *testing.T) {
	for _, variant := range []string{"kmeans-high", "kmeans-low"} {
		for _, kind := range harness.Kinds {
			for _, threads := range []int{1, 4} {
				t.Run(variant+"/"+kind+"/"+map[int]string{1: "seq", 4: "par"}[threads], func(t *testing.T) {
					if run(t, variant, kind, threads, 1).Commits == 0 {
						t.Fatal("no transactions committed")
					}
				})
			}
		}
	}
}
