package bench7

import (
	"testing"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

// TestRSTMLazySnapshotRegression is the regression test for a snapshot
// bug in RSTM's lazy-acquire mode: openWriteLazy used to clone objects
// outside the epoch discipline, letting a transaction mix data from two
// snapshots and crash on the torn state (found via the Figure 7
// experiment). See rstm.openWriteLazy.
func TestRSTMLazySnapshotRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second stress test")
	}
	cfg := Config{Levels: 3, Fanout: 3, CompPool: 32, AtomicPerComp: 10, ReadOnlyPct: 90}
	for round := 0; round < 3; round++ {
		for _, spec := range []harness.EngineSpec{
			{Kind: "rstm", Acquire: "eager", Manager: "polka"},
			{Kind: "rstm", Acquire: "lazy", Manager: "polka"},
		} {
			var b *Bench
			w := harness.Workload{
				Setup: func(e stm.STM) error { b = Setup(e, cfg); return nil },
				BindOp: func(th stm.Thread, worker int, rng *util.Rand) func() {
					return b.NewOps(th, rng).Op
				},
				Check: func(e stm.STM) error { return b.Check() },
			}
			mk := func(uint64) harness.Workload { return w }
			if _, err := harness.RepeatThroughput(spec, mk, harness.RunConfig{Threads: 8, Duration: 250 * time.Millisecond}); err != nil {
				t.Fatalf("round %d %s: %v", round, spec.DisplayName(), err)
			}
		}
	}
}
