package labyrinth_test

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

// engines is the paper's full line-up; labyrinth is written against the
// object API, like every STAMP app, so it runs on RSTM too.
func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"rstm":    func() stm.STM { return rstm.New(rstm.Config{Manager: cm.ByName("polka")}) },
	}
}

// TestCorrectness runs labyrinth (3-D maze routing with long, big-
// footprint transactions) at Test scale on every engine, sequentially
// and with 4 workers; Check verifies every routed path is connected,
// in-bounds and non-overlapping.
func TestCorrectness(t *testing.T) {
	for ename, factory := range engines() {
		for _, threads := range []int{1, 4} {
			t.Run(ename+"/"+map[int]string{1: "seq", 4: "par"}[threads], func(t *testing.T) {
				app, err := stamp.New("labyrinth", stamp.Test)
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

// TestParallelContentionRetries runs labyrinth with heavy oversubscription
// on the eager engine: long routing transactions over a shared grid must
// still produce a valid maze when aborts occur.
func TestParallelContentionRetries(t *testing.T) {
	app, err := stamp.New("labyrinth", stamp.Test)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := stamp.Run(app, engines()["tinystm"](), 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Commits == 0 {
		t.Fatal("no transactions committed")
	}
}
