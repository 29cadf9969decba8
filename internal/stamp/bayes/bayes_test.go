package bayes_test

import (
	"testing"

	"swisstm/internal/cm"
	"swisstm/internal/rstm"
	"swisstm/internal/stamp"
	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
)

// engines is the paper's full line-up; bayes is written against the
// object API, like every STAMP app, so it runs on RSTM too.
func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"rstm":    func() stm.STM { return rstm.New(rstm.Config{Manager: cm.ByName("polka")}) },
	}
}

// TestCorrectness runs bayes (structure learning: DFS-heavy proposals
// with cycle checks) at Test scale on every engine, sequentially and
// with 4 workers; Check verifies the learned network recovered the
// hidden ground-truth edges and stayed acyclic.
func TestCorrectness(t *testing.T) {
	for ename, factory := range engines() {
		for _, threads := range []int{1, 4} {
			t.Run(ename+"/"+map[int]string{1: "seq", 4: "par"}[threads], func(t *testing.T) {
				app, err := stamp.New("bayes", stamp.Test)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := stamp.Run(app, factory(), threads)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Commits == 0 {
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
	run := func() uint64 {
		app, err := stamp.New("bayes", stamp.Test)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := stamp.RunSeeded(app, engines()["tl2"](), 1, 77)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Commits
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("seeded sequential commit counts differ: %d vs %d", a, b)
	}
}
