package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"swisstm/internal/results"
)

// tiny returns options small enough for unit tests.
func tiny(out *bytes.Buffer) Options {
	o := Quick(out)
	o.Duration = 50 * time.Millisecond
	o.Threads = []int{1, 2}
	return o
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tiny(&buf).Run("fig6"); err == nil {
		t.Fatal("fig6 is a diagram, not an experiment; expected an error")
	}
}

// TestSmokeLightweight exercises the cheap experiments end to end and
// checks they emit the expected headers and series and return records.
func TestSmokeLightweight(t *testing.T) {
	cases := map[string][]string{
		"fig5":   {"Figure 5", "SwissTM", "TL2", "TinySTM", "RSTM"},
		"fig9":   {"Figure 9", "Greedy", "Polka"},
		"fig10":  {"Figure 10", "Two-phase", "Greedy"},
		"table1": {"Table 1", "mixed/invisible/2-phase"},
	}
	for name, wants := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			recs, err := tiny(&buf).Run(name)
			if err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, w := range wants {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
			if len(recs) == 0 {
				t.Fatal("experiment returned no records")
			}
			for _, r := range recs {
				if r.Experiment != name {
					t.Fatalf("record tagged %q, want %q", r.Experiment, name)
				}
				if r.Workload == "" || r.Engine == "" || r.EngineKind == "" {
					t.Fatalf("record missing identity fields: %+v", r)
				}
				if !r.CheckedOK {
					t.Fatalf("record failed its check: %+v", r)
				}
			}
		})
	}
}

// TestSmokeTxKV runs the txkv family at test scale in seeded fixed-ops
// mode and checks the rendered figures, record tagging and oracles.
func TestSmokeTxKV(t *testing.T) {
	var buf bytes.Buffer
	o := tiny(&buf)
	o.KVKeys = 256
	o.Seed = 5
	o.FixedOps = 150
	recs, err := o.Run("txkv")
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{"TxKV read-heavy (zipfian", "TxKV transfer", "TxKV read-heavy (uniform", "SwissTM", "TL2", "TinySTM", "RSTM"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
	// 4 engines × 5 workloads × 2 thread counts.
	if len(recs) != 4*5*2 {
		t.Fatalf("want 40 records, got %d", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Workload] = true
		if r.Experiment != "txkv" || !r.CheckedOK || r.Ops == 0 {
			t.Fatalf("bad txkv record: %+v", r)
		}
	}
	for _, wl := range []string{"txkv/read-heavy-zipf", "txkv/update-heavy-zipf", "txkv/transfer-zipf", "txkv/read-only-zipf", "txkv/read-heavy-uniform"} {
		if !seen[wl] {
			t.Errorf("no records for workload %s (have %v)", wl, seen)
		}
	}
}

// TestTxKVCoversTheOldSmoke: under the options `make smoke-txkv` passes
// to paperfigs, the txkv family holds every row the deleted cmd/txkv
// driver wrote for that target (smokeTxKVRows, recorded from that binary:
// workload, engine, threads, repeat, seed, ops), so the gate lost no
// point and no RNG stream when it changed drivers.
func TestTxKVCoversTheOldSmoke(t *testing.T) {
	o := Quick(nil)
	o.Threads, o.Repeats, o.Seed, o.FixedOps = []int{1, 2}, 2, 1, 200
	recs, err := o.Run("txkv")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, r := range recs {
		have[fmt.Sprintf("%s,%s,%d,%d,%d,%d", r.Workload, r.Engine, r.Threads, r.Repeat, r.Seed, r.Ops)] = true
	}
	want := strings.Split(strings.TrimSpace(smokeTxKVRows), "\n")
	if len(want) != 48 {
		t.Fatalf("test setup: %d recorded rows, want 48", len(want))
	}
	for _, row := range want {
		if !have[row] {
			t.Errorf("row of the old smoke-txkv missing: %s", row)
		}
	}
}

// TestOversubscribedPointsGetNoSpeedup: a ratio between two
// configurations is withheld where the point ran more threads than the
// host has cores, and printed where it did not.
func TestOversubscribedPointsGetNoSpeedup(t *testing.T) {
	var recs []results.Record
	for _, engine := range []string{"SwissTM", "TL2", "TinySTM"} {
		for _, tc := range []int{1, 2} {
			recs = append(recs, results.Record{Workload: "stamp/intruder", Engine: engine, Threads: tc, Cores: 1, DurationSec: 1})
		}
	}
	var buf bytes.Buffer
	renderFig3(run{out: &buf, pts: []point{{workload: "stamp/intruder", title: "intruder"}}, threads: []int{1, 2}, recs: recs})
	var fields []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "intruder") {
			fields = append(fields, strings.Fields(line)...)
		}
	}
	if want := "intruder 0.00 - intruder 0.00 -"; strings.Join(fields, " ") != want {
		t.Errorf("intruder rows = %q, want %q:\n%s", strings.Join(fields, " "), want, buf.String())
	}
	if got := speedupCell(0.5, 2, recs[0]) + " " + speedupCell(0.5, 2, recs[1]); got != "0.50 -" {
		t.Errorf("speedupCell at 1 and 2 threads on 1 core = %q, want \"0.50 -\"", got)
	}
}

// TestSmokeFixedWork exercises one fixed-work experiment (Figure 11's
// intruder ablation) at test scale.
func TestSmokeFixedWork(t *testing.T) {
	var buf bytes.Buffer
	o := tiny(&buf)
	recs, err := o.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "back-off") {
		t.Errorf("unexpected output:\n%s", buf.String())
	}
	// Two specs × two thread counts, one repeat each.
	if len(recs) != 4 {
		t.Fatalf("want 4 records, got %d", len(recs))
	}
	for _, r := range recs {
		if r.Workload != "stamp/intruder" || r.DurationSec <= 0 || r.Ops == 0 {
			t.Fatalf("bad fixed-work record: %+v", r)
		}
	}
}

// TestRepeatsAggregateInRendering runs fig10 with 3 repeats and checks
// each point carries all repeats while the rendered table stays one row
// per thread count.
func TestRepeatsAggregateInRendering(t *testing.T) {
	var buf bytes.Buffer
	o := tiny(&buf)
	o.Threads = []int{1}
	o.Repeats = 3
	o.Seed = 99 // fixed-ops mode keeps the test fast and deterministic
	o.FixedOps = 200
	recs, err := o.Run("fig10")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*3 { // 2 specs × 3 repeats
		t.Fatalf("want 6 records, got %d", len(recs))
	}
	aggs := results.Aggregate(recs)
	if len(aggs) != 2 {
		t.Fatalf("want 2 aggregated points, got %d", len(aggs))
	}
	for _, a := range aggs {
		if a.Repeats != 3 {
			t.Fatalf("aggregated point has %d repeats, want 3: %+v", a.Repeats, a)
		}
	}
}

// TestSeededRunsReproduceOps is the acceptance check: two seeded runs
// must produce identical per-repeat Ops counts on one thread.
func TestSeededRunsReproduceOps(t *testing.T) {
	run := func() []results.Record {
		o := tiny(new(bytes.Buffer))
		o.Threads = []int{1}
		o.Repeats = 2
		o.Seed = 4242
		o.FixedOps = 150
		recs, err := o.Run("fig9")
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Ops != b[i].Ops {
			t.Fatalf("record %d: Ops %d != %d (seeded runs must reproduce)", i, a[i].Ops, b[i].Ops)
		}
		if a[i].Seed != b[i].Seed {
			t.Fatalf("record %d: seed %d != %d (derived seeds must reproduce)", i, a[i].Seed, b[i].Seed)
		}
	}
}

func TestFormatFigure(t *testing.T) {
	out := formatFigure("Test", "tx/s", []int{1, 2},
		[]series{{name: "A", points: map[int]float64{1: 10, 2: 20}},
			{name: "B", points: map[int]float64{1: 5}}})
	for _, want := range []string{"# Test", "tx/s", "A", "B", "10.00", "20.00", "5.00", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

// TestFormatFigureMarksOversubscribedRows: a row with more threads than
// the host has cores is marked and footnoted with the core count; a
// figure without such a row carries no footnote.
func TestFormatFigureMarksOversubscribedRows(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	lines := []series{{name: "A", points: map[int]float64{cores: 1, cores + 1: 2}}}
	out := formatFigure("T", "m", []int{cores, cores + 1}, lines)
	if !strings.Contains(out, fmt.Sprintf("\n%-8d", cores)) || !strings.Contains(out, fmt.Sprintf("\n%d*", cores+1)) ||
		!strings.Contains(out, fmt.Sprintf("# * more threads than this host's %d cores", cores)) {
		t.Errorf("rows %d (plain) and %d* (marked) and a footnote wanted:\n%s", cores, cores+1, out)
	}
	if out := formatFigure("T", "m", []int{cores}, lines); strings.Contains(out, "*") {
		t.Errorf("no row is oversubscribed, yet:\n%s", out)
	}
}

func TestMeanSpeedup(t *testing.T) {
	// 2× faster than one peer, equal to another: mean of (1.0, 0.0) = 0.5.
	if got := meanSpeedup(2, []float64{1, 2}); got != 0.5 {
		t.Fatalf("meanSpeedup = %v, want 0.5", got)
	}
	if got := meanSpeedup(0, []float64{1}); got != 0 {
		t.Fatalf("zero merit should give 0, got %v", got)
	}
	if got := meanSpeedup(1, nil); got != 0 {
		t.Fatalf("no peers should give 0, got %v", got)
	}
}

const smokeTxKVRows = `
txkv/read-heavy-zipf,RSTM(polka),1,0,9593933841893782399,200
txkv/read-heavy-zipf,RSTM(polka),1,1,11494057947004382006,200
txkv/read-heavy-zipf,RSTM(polka),2,0,12402585158269229698,400
txkv/read-heavy-zipf,RSTM(polka),2,1,14967252386785225873,400
txkv/read-heavy-zipf,SwissTM,1,0,7381230547624642187,200
txkv/read-heavy-zipf,SwissTM,1,1,18101611379458104696,200
txkv/read-heavy-zipf,SwissTM,2,0,802084937930881392,400
txkv/read-heavy-zipf,SwissTM,2,1,535028024310718072,400
txkv/read-heavy-zipf,TL2,1,0,1152854581093683318,200
txkv/read-heavy-zipf,TL2,1,1,15644548896611857962,200
txkv/read-heavy-zipf,TL2,2,0,9524982359240282017,400
txkv/read-heavy-zipf,TL2,2,1,3236543481848171022,400
txkv/read-heavy-zipf,TinySTM,1,0,3478867499859033686,200
txkv/read-heavy-zipf,TinySTM,1,1,792157570445093773,200
txkv/read-heavy-zipf,TinySTM,2,0,11631035165468792016,400
txkv/read-heavy-zipf,TinySTM,2,1,11033581300280629987,400
txkv/transfer-zipf,RSTM(polka),1,0,4923247410773169149,200
txkv/transfer-zipf,RSTM(polka),1,1,16573527944363092028,200
txkv/transfer-zipf,RSTM(polka),2,0,16501635745516550646,400
txkv/transfer-zipf,RSTM(polka),2,1,2597737553024331804,400
txkv/transfer-zipf,SwissTM,1,0,8648747254635657170,200
txkv/transfer-zipf,SwissTM,1,1,10710685783576323321,200
txkv/transfer-zipf,SwissTM,2,0,17626781475175122816,400
txkv/transfer-zipf,SwissTM,2,1,15386045715987143170,400
txkv/transfer-zipf,TL2,1,0,5972914586325577460,200
txkv/transfer-zipf,TL2,1,1,16121897241233668236,200
txkv/transfer-zipf,TL2,2,0,12450559987125269534,400
txkv/transfer-zipf,TL2,2,1,1059759597573497073,400
txkv/transfer-zipf,TinySTM,1,0,9287438580230630933,200
txkv/transfer-zipf,TinySTM,1,1,2522467503458205288,200
txkv/transfer-zipf,TinySTM,2,0,4490886471294379035,400
txkv/transfer-zipf,TinySTM,2,1,10163803200901198243,400
txkv/update-heavy-zipf,RSTM(polka),1,0,2168458989068792796,200
txkv/update-heavy-zipf,RSTM(polka),1,1,13193662889204946962,200
txkv/update-heavy-zipf,RSTM(polka),2,0,6027340911331109936,400
txkv/update-heavy-zipf,RSTM(polka),2,1,8097900180114213157,400
txkv/update-heavy-zipf,SwissTM,1,0,12163295985173915806,200
txkv/update-heavy-zipf,SwissTM,1,1,10204186687929365245,200
txkv/update-heavy-zipf,SwissTM,2,0,9217254969216999581,400
txkv/update-heavy-zipf,SwissTM,2,1,153974342488594395,400
txkv/update-heavy-zipf,TL2,1,0,1569700186484088348,200
txkv/update-heavy-zipf,TL2,1,1,10755285203231810281,200
txkv/update-heavy-zipf,TL2,2,0,4660453548123118128,400
txkv/update-heavy-zipf,TL2,2,1,16852223077925195632,400
txkv/update-heavy-zipf,TinySTM,1,0,11814709247301528400,200
txkv/update-heavy-zipf,TinySTM,1,1,2520627554801505176,200
txkv/update-heavy-zipf,TinySTM,2,0,17773083229559083689,400
txkv/update-heavy-zipf,TinySTM,2,1,17730696185697994141,400
`
