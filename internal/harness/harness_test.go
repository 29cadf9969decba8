package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"swisstm/internal/results"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

func TestEngineSpecFactory(t *testing.T) {
	cases := []struct {
		spec EngineSpec
		name string
	}{
		{EngineSpec{Kind: "swisstm"}, "SwissTM"},
		{EngineSpec{Kind: "swisstm", Policy: "timid"}, "SwissTM(timid)"},
		{EngineSpec{Kind: "tl2"}, "TL2"},
		{EngineSpec{Kind: "tinystm"}, "TinySTM"},
		{EngineSpec{Kind: "rstm", Acquire: "lazy", Manager: "greedy"}, "RSTM(lazy/greedy)"},
		{EngineSpec{Kind: "rstm", Label: "RSTM"}, "RSTM"},
	}
	for _, c := range cases {
		if got := c.spec.DisplayName(); got != c.name {
			t.Errorf("DisplayName(%+v) = %q, want %q", c.spec, got, c.name)
		}
		e := c.spec.New()
		if e == nil {
			t.Fatalf("New(%+v) returned nil", c.spec)
		}
		// Every engine must run a trivial transaction.
		th := e.NewThread(0)
		var h stm.Handle
		stm.AtomicVoid(th, func(tx stm.Tx) {
			h = tx.NewObject(1)
			tx.WriteField(h, 0, 5)
		})
		stm.AtomicVoid(th, func(tx stm.Tx) {
			if tx.ReadField(h, 0) != 5 {
				t.Errorf("%s: lost write", c.spec.DisplayName())
			}
		})
	}
}

func TestUnknownEngineKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown engine kind")
		}
	}()
	EngineSpec{Kind: "nope"}.New()
}

// TestParseKinds: a list from a flag or a config file becomes specs in
// its order, and an unknown or empty kind is an error that names the
// kinds there are — the usage error in front of New's panic.
func TestParseKinds(t *testing.T) {
	specs, err := ParseKinds(" rstm, swisstm", "greedy")
	if err != nil || len(specs) != 2 || specs[0] != (EngineSpec{Kind: "rstm", Manager: "greedy"}) || specs[1].Kind != "swisstm" {
		t.Fatalf("ParseKinds = %+v, %v", specs, err)
	}
	if all, err := ParseKinds(strings.Join(Kinds, ","), ""); err != nil || len(all) != len(Kinds) {
		t.Fatalf("the list of every kind: %+v, %v", all, err)
	}
	for _, k := range Kinds {
		if (EngineSpec{Kind: k}).New() == nil {
			t.Errorf("New builds no %s", k)
		}
	}
	for _, list := range []string{"swistm", "", "tl2,", "tl2,nope"} {
		if _, err := ParseKinds(list, ""); err == nil || !strings.Contains(err.Error(), "want swisstm, tl2, tinystm, rstm") {
			t.Errorf("ParseKinds(%q): %v, want an error listing the kinds", list, err)
		}
	}
}

func TestMeasureThroughputCountsOps(t *testing.T) {
	var h stm.Handle
	w := Workload{
		Setup: func(e stm.STM) error {
			th := e.NewThread(0)
			stm.AtomicVoid(th, func(tx stm.Tx) { h = tx.NewObject(1) })
			return nil
		},
		BindOp: func(th stm.Thread, worker int, rng *util.Rand) func() {
			return func() { stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, 0, tx.ReadField(h, 0)+1) }) }
		},
	}
	res, err := measureThroughput(EngineSpec{Kind: "swisstm"}, w, measureCfg{threads: 2, dur: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Throughput() == 0 {
		t.Fatal("no operations measured")
	}
	if res.Stats.Commits < res.Ops {
		t.Fatalf("commits %d < ops %d (each op commits ≥ once)", res.Stats.Commits, res.Ops)
	}
}

func TestMeasureWorkConservation(t *testing.T) {
	// Fixed-work: all tasks processed exactly once across workers.
	const tasks = 1000
	var h stm.Handle
	cursor := make(chan int, tasks)
	for i := 0; i < tasks; i++ {
		cursor <- i
	}
	close(cursor)
	res, err := measureWork(EngineSpec{Kind: "tinystm"}, WorkSpec{
		Setup: func(e stm.STM) error {
			th := e.NewThread(0)
			stm.AtomicVoid(th, func(tx stm.Tx) { h = tx.NewObject(1) })
			return nil
		},
		Work: func(e stm.STM, th stm.Thread, worker, threads int, rng *util.Rand) {
			for range cursor {
				stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, 0, tx.ReadField(h, 0)+1) })
			}
		},
		Check: func(e stm.STM) error {
			th := e.NewThread(10)
			var got stm.Word
			stm.AtomicVoid(th, func(tx stm.Tx) { got = tx.ReadField(h, 0) })
			if got != tasks {
				t.Errorf("processed %d tasks, want %d", got, tasks)
			}
			return nil
		},
	}, measureCfg{threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CheckedOK {
		t.Fatal("check did not run")
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(42, "fig2|stmbench7|SwissTM", 1, 0)
	if a != DeriveSeed(42, "fig2|stmbench7|SwissTM", 1, 0) {
		t.Fatal("derivation must be deterministic")
	}
	for _, other := range []uint64{
		DeriveSeed(42, "fig2|stmbench7|SwissTM", 1, 1),
		DeriveSeed(42, "fig2|stmbench7|SwissTM", 2, 0),
		DeriveSeed(42, "fig2|stmbench7|TL2", 1, 0),
		DeriveSeed(43, "fig2|stmbench7|SwissTM", 1, 0),
		DeriveSeed(0, "fig2|stmbench7|SwissTM", 1, 0), // a zero base is a seed like any other
	} {
		if other == a {
			t.Fatal("distinct run points must get distinct seeds")
		}
	}
}

// counterWorkload increments one shared field per op.
func counterWorkload() Workload {
	var h stm.Handle
	return Workload{
		Setup: func(e stm.STM) error {
			th := e.NewThread(0)
			stm.AtomicVoid(th, func(tx stm.Tx) { h = tx.NewObject(1) })
			return nil
		},
		BindOp: func(th stm.Thread, worker int, rng *util.Rand) func() {
			return func() { stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, 0, tx.ReadField(h, 0)+1) }) }
		},
	}
}

func TestMeasureThroughputOpsIsExact(t *testing.T) {
	const quota = 500
	res, err := measureThroughput(EngineSpec{Kind: "swisstm"}, counterWorkload(), measureCfg{threads: 2, fixedOps: quota, seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2*quota {
		t.Fatalf("fixed-ops run did %d ops, want %d", res.Ops, 2*quota)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestToRecord(t *testing.T) {
	res, err := measureThroughput(EngineSpec{Kind: "tl2"}, counterWorkload(), measureCfg{threads: 1, fixedOps: 100, seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.ToRecord("figX", "counter", 2, 9)
	if rec.Experiment != "figX" || rec.Workload != "counter" || rec.Repeat != 2 || rec.Seed != 9 {
		t.Fatalf("labels not bridged: %+v", rec)
	}
	if rec.Engine != "TL2" || rec.EngineKind != "tl2" || rec.Threads != 1 {
		t.Fatalf("engine identity not bridged: %+v", rec)
	}
	if rec.Ops != 100 || rec.Commits != res.Stats.Commits || !rec.CheckedOK {
		t.Fatalf("measurement not bridged: %+v", rec)
	}
	if rec.Throughput == 0 || rec.DurationSec == 0 {
		t.Fatalf("derived metrics missing: %+v", rec)
	}
	if cores := runtime.GOMAXPROCS(0); rec.Cores != cores {
		t.Errorf("ToRecord stamped cores = %d, want %d", rec.Cores, cores)
	}
}

func TestRepeatThroughputSeededIsReproducible(t *testing.T) {
	cfg := RunConfig{
		Experiment: "t", Workload: "counter", Threads: 1,
		FixedOps: 300, Repeats: 3, Seed: 1234,
	}
	run := func() []results.Record {
		recs, err := RepeatThroughput(EngineSpec{Kind: "tinystm"},
			func(seed uint64) Workload { return counterWorkload() }, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("want 3 records per run, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Ops != b[i].Ops {
			t.Fatalf("repeat %d: Ops %d != %d (seeded runs must match bit-for-bit)", i, a[i].Ops, b[i].Ops)
		}
		if a[i].Seed != b[i].Seed {
			t.Fatalf("repeat %d: per-repeat seeds must match", i)
		}
		if i > 0 && a[i].Seed == a[i-1].Seed {
			t.Fatal("distinct repeats must get distinct derived seeds")
		}
	}
}

func TestRepeatWorkRecords(t *testing.T) {
	var h stm.Handle
	const tasks = 200
	mk := func(seed uint64) WorkSpec {
		cursor := make(chan int, tasks)
		for i := 0; i < tasks; i++ {
			cursor <- i
		}
		close(cursor)
		return WorkSpec{
			Setup: func(e stm.STM) error {
				th := e.NewThread(0)
				stm.AtomicVoid(th, func(tx stm.Tx) { h = tx.NewObject(1) })
				return nil
			},
			Work: func(e stm.STM, th stm.Thread, worker, threads int, rng *util.Rand) {
				for range cursor {
					stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, 0, tx.ReadField(h, 0)+1) })
				}
			},
		}
	}
	recs, err := RepeatWork(EngineSpec{Kind: "swisstm"}, mk,
		RunConfig{Experiment: "t", Workload: "fixed", Threads: 2, Repeats: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 records, got %d", len(recs))
	}
	for i, r := range recs {
		if r.Ops < tasks {
			t.Fatalf("repeat %d: ops %d < %d tasks", i, r.Ops, tasks)
		}
		if r.Repeat != i {
			t.Fatalf("repeat index %d recorded as %d", i, r.Repeat)
		}
	}
}
