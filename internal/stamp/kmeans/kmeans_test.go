package kmeans_test

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

// engines is the paper's full line-up; kmeans is written against the
// object API, like every STAMP app, so it runs on RSTM too.
func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 21, TableBits: 15}) },
		"rstm":    func() stm.STM { return rstm.New(rstm.Config{Manager: cm.ByName("polka")}) },
	}
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
		for ename, factory := range engines() {
			for _, threads := range []int{1, 4} {
				t.Run(variant+"/"+ename+"/"+map[int]string{1: "seq", 4: "par"}[threads], func(t *testing.T) {
					app, err := stamp.New(variant, stamp.Test)
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
}
