package leetm

import (
	"testing"

	"swisstm/internal/cm"
	"swisstm/internal/rstm"
	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
	"swisstm/internal/util"
)

func testBoard() Board { return GenBoard("test", 32, 32, 24, 3, 14, 0xbeef) }

func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"rstm":    func() stm.STM { return rstm.New(rstm.Config{Manager: cm.NewPolka()}) },
	}
}

func TestBoardGeneration(t *testing.T) {
	b := testBoard()
	if len(b.Nets) != 24 {
		t.Fatalf("nets = %d, want 24", len(b.Nets))
	}
	pins := map[int]bool{}
	for _, n := range b.Nets {
		for _, p := range []int{n.SY*b.W + n.SX, n.TY*b.W + n.TX} {
			if pins[p] {
				t.Fatalf("pin collision at %d", p)
			}
			pins[p] = true
		}
		d := abs(n.SX-n.TX) + abs(n.SY-n.TY)
		if d < 3 || d > 14 {
			t.Fatalf("net %d length %d out of [3,14]", n.ID, d)
		}
	}
	// Deterministic for a fixed seed.
	b2 := testBoard()
	if b2.Nets[5] != b.Nets[5] {
		t.Fatal("board generation is not deterministic")
	}
}

func TestSequentialRouting(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			r := Setup(factory(), testBoard())
			th := r.E.NewThread(1)
			rng := util.NewRand(3)
			r.Work(r.E, th, 0, 1, rng)
			if r.Routed.Load()+r.Failed.Load() != uint64(len(r.Board.Nets)) {
				t.Fatalf("routed %d + failed %d != %d nets",
					r.Routed.Load(), r.Failed.Load(), len(r.Board.Nets))
			}
			if r.Routed.Load() < uint64(len(r.Board.Nets))/2 {
				t.Fatalf("only %d/%d nets routed; board too dense?",
					r.Routed.Load(), len(r.Board.Nets))
			}
			if err := r.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParallelRouting(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			r := Setup(factory(), testBoard())
			done := make(chan struct{})
			for i := 0; i < 4; i++ {
				go func(id int) {
					th := r.E.NewThread(id + 1)
					r.Work(r.E, th, id, 4, util.NewRand(uint64(id)+1))
					done <- struct{}{}
				}(i)
			}
			for i := 0; i < 4; i++ {
				<-done
			}
			if r.Routed.Load()+r.Failed.Load() != uint64(len(r.Board.Nets)) {
				t.Fatalf("work not conserved")
			}
			if err := r.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIrregularVariant: at IrregularPct 100 every routing transaction
// writes Oc, and each net's one committed routing transaction — routed or
// failed, Atomic commits either way — adds exactly one to it.
func TestIrregularVariant(t *testing.T) {
	b := testBoard()
	b.IrregularPct = 100
	r := Setup(engines()["swisstm"](), b)
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func(id int) {
			th := r.E.NewThread(id + 1)
			r.Work(r.E, th, id, 2, util.NewRand(uint64(id)+5))
			done <- struct{}{}
		}(i)
	}
	<-done
	<-done
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	th := r.E.NewThread(0)
	oc := stm.AtomicRO(th, func(tx stm.TxRO) stm.Word { return tx.ReadField(r.Oc, 0) })
	if want := r.Routed.Load() + r.Failed.Load(); uint64(oc) != want {
		t.Fatalf("Oc = %d, want one per net: %d routed + %d failed", oc, r.Routed.Load(), r.Failed.Load())
	}
}

func TestResetAllowsRerun(t *testing.T) {
	r := Setup(engines()["tinystm"](), testBoard())
	th := r.E.NewThread(1)
	r.Work(r.E, th, 0, 1, util.NewRand(9))
	first := r.Routed.Load()
	r.Reset()
	r.Work(r.E, th, 0, 1, util.NewRand(9))
	if r.Routed.Load() != first {
		t.Fatalf("rerun routed %d, first run %d", r.Routed.Load(), first)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestBoardsDiffer(t *testing.T) {
	mem, main := MemoryBoard(), MainBoard()
	if main.W*main.H <= mem.W*mem.H || len(main.Nets) <= len(mem.Nets) {
		t.Fatal("main board must be larger than memory board")
	}
}
