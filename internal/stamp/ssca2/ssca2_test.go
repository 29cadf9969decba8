package ssca2_test

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

// engines is the paper's full line-up; ssca2 is written against the
// object API, like every STAMP app, so it runs on RSTM too.
func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"rstm":    func() stm.STM { return rstm.New(rstm.Config{Manager: cm.ByName("polka")}) },
	}
}

// TestCorrectness runs ssca2 (graph kernel construction) at Test scale
// on every engine, sequentially and with 4 workers; Check validates the
// constructed adjacency structure against the sequential oracle.
func TestCorrectness(t *testing.T) {
	for ename, factory := range engines() {
		for _, threads := range []int{1, 4} {
			t.Run(ename+"/"+map[int]string{1: "seq", 4: "par"}[threads], func(t *testing.T) {
				app, err := stamp.New("ssca2", stamp.Test)
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

// TestRepeatedRunsAgree runs ssca2 twice on one engine and checks the
// commit totals agree on one thread: the workload's task partitioning is
// deterministic, so sequential commit counts must reproduce.
func TestRepeatedRunsAgree(t *testing.T) {
	run := func() uint64 {
		app, err := stamp.New("ssca2", stamp.Test)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := stamp.Run(app, engines()["swisstm"](), 1)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Commits
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("sequential commit counts differ: %d vs %d", a, b)
	}
}
