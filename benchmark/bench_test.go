package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.N != 10 || s.Min != 1 || s.Max != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("ten values: %+v", s)
	}
	if got, want := s.spread(), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("three values: %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Errorf("one value: %+v", s)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even median")
	}
}

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]int64, 200)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, level := cappedPercentile(s, 99); level != 90 || v != 180 {
		t.Errorf("p99 of 200 samples: got %d at p%v, want 180 at p90", v, level)
	}
	if percentile(s, 50) != 100 || percentile(s, 100) != 200 || percentile(nil, 50) != 0 {
		t.Error("nearest-rank percentile")
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	const root, mid, leaf = spanOp, spanAtomic, spanTransfer
	spans := []span{
		{name: root, parent: -1, start: 0, end: 100},
		// Nested: mid covers 10..50 of the root and has a leaf of its own.
		{name: mid, parent: 0, start: 10, end: 50},
		{name: leaf, parent: 1, start: 20, end: 30},
		// Overlapping siblings 40..70 and 60..90, and one sticking out of
		// the parent (95..120): the union within the root is 10..90 + 95..100.
		{name: mid, parent: 0, start: 40, end: 70},
		{name: mid, parent: 0, start: 60, end: 90},
		{name: mid, parent: 0, start: 95, end: 120},
	}
	self := selfTimes(spans)
	if got := self[root]; got != 100-(80+5) {
		t.Errorf("root self time %d, want 15", got)
	}
	// mid: (40-10) + 30 + 30 + 25 of its own durations, less the leaf's 10.
	if got := self[mid]; got != 40-10+30+30+25 {
		t.Errorf("mid self time %d, want 115", got)
	}
	if got := self[leaf]; got != 10 {
		t.Errorf("leaf self time %d, want 10", got)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	gen := func(seed uint64) ([]byte, []word) {
		c := buildCtx{name: "kv-hot-transfer", callers: 2, seed: seed, epoch: 3, perCal: 4096}
		return streamBytes(serviceInputs(c).ops[1]), transferInputs(c).transfers[1]
	}
	a, ta := gen(42)
	b, tb := gen(42)
	c, tc := gen(43)
	if !bytes.Equal(a, b) || !reflect.DeepEqual(ta, tb) {
		t.Error("the same seed gave different streams")
	}
	if bytes.Equal(a, c) || reflect.DeepEqual(ta, tc) {
		t.Error("different seeds gave the same stream")
	}
	// Callers and epochs of one seed differ too.
	ctx := buildCtx{callers: 2, seed: 42, epoch: 3, perCal: 4096}
	in := serviceInputs(ctx)
	if bytes.Equal(streamBytes(in.ops[0]), streamBytes(in.ops[1])) {
		t.Error("two callers share a stream")
	}
	ctx.epoch = 4
	if bytes.Equal(a, streamBytes(serviceInputs(ctx).ops[1])) {
		t.Error("two epochs share a stream")
	}
	// The mix is the one the workload names: 48 get / 42 put / 10 CAS.
	var kinds [3]int
	for _, op := range in.ops[0] {
		kinds[op.kind]++
		if op.key < 1 || op.key > svcKeys {
			t.Fatalf("key %d out of range", op.key)
		}
	}
	for k, want := range []float64{0.48, 0.42, 0.10} {
		if got := float64(kinds[k]) / 4096; math.Abs(got-want) > 0.03 {
			t.Errorf("kind %d share %.3f, want %.2f", k, got, want)
		}
	}
	for i := 0; i < len(ta); i += transferKeys {
		for j := i; j < i+transferKeys; j++ {
			for k := i; k < j; k++ {
				if ta[j] == ta[k] {
					t.Fatalf("transfer %d repeats key %d", i/transferKeys, ta[j])
				}
			}
		}
	}
}

func TestServiceOracleRejectsAWrongValue(t *testing.T) {
	in := &svcInst{cs: make([]*svcCaller, 2)}
	for i := range in.cs {
		in.cs[i] = &svcCaller{id: i, last: make([]uint64, svcKeys+1)}
	}
	in.cs[0].last[7], in.cs[1].last[7] = 100, 200
	for _, c := range []struct {
		key, got uint64
		ok       bool
	}{
		{7, 100, true}, {7, 200, true},
		{7, uint64(svcBalance), false}, // written, so the balance is stale
		{7, 300, false},
		{8, uint64(svcBalance), true}, // never written
		{8, 100, false},
	} {
		if err := in.checkKey(c.key, c.got); (err == nil) != c.ok {
			t.Errorf("checkKey(%d, %d): %v, want ok=%t", c.key, c.got, err, c.ok)
		}
	}
}

func TestArenaExhaustionIsAPlainError(t *testing.T) {
	// Provisioned for 20 operations, asked for thousands: the engine
	// panics with "arena exhausted" and the benchmark must report it.
	in, err := buildBench7(buildCtx{name: "bench7-rw", kind: "swisstm", callers: 2, seed: 1, perCal: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.check(); err != nil {
		t.Fatalf("fresh structure fails its oracle: %v", err)
	}
	_, err = in.run(20000, make([]*tracer, 2))
	if err == nil || !strings.Contains(err.Error(), "arena exhausted") {
		t.Fatalf("run past the arena: %v, want an arena-exhausted error", err)
	}
	// The guard trips before exhaustion, at three quarters.
	if err := arenaGuard(newEngine("swisstm", 64)); err != nil {
		t.Errorf("empty arena: %v", err)
	}
	if err := arenaWithin(48, 64); err != nil {
		t.Errorf("arena at three quarters: %v", err)
	}
	if err := arenaWithin(49, 64); err == nil {
		t.Error("arena at 49 of 64 words passed the guard")
	}
}

// TestSmoke drives every workload through both modes with one tiny epoch
// and checks the contract's output: every metric once, with its unit, and
// every epoch's oracle run.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < cores {
		t.Skipf("needs %d cores", cores)
	}
	// The benchmark keeps its scratch files under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			res, err := runWorkload(w, options{seed: 7, seconds: 1, trace: trace, smoke: true}, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.name, trace, err, out.String())
			}
			text := out.String()
			lines := strings.Split(strings.TrimSpace(text), "\n")
			epochs := 1 + trace
			if got := strings.Count(text, "oracle ok"); got != epochs {
				t.Errorf("%s trace=%d: %d oracle runs, want %d", w.name, trace, got, epochs)
			}
			for _, key := range []string{"nproc=", "gomaxprocs=", "go=go", "kernel=", "commit=", "seed=7", "epochs=", "quota_per_epoch="} {
				if !strings.Contains(lines[0], key) {
					t.Errorf("%s: provenance line lacks %q: %s", w.name, key, lines[0])
				}
			}
			if strings.Contains(strings.ToLower(text), "speed-up") || strings.Contains(strings.ToLower(text), "speedup") {
				t.Errorf("%s: output has a speed-up column", w.name)
			}
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s: result line: %v\n%s", w.name, err, lines[len(lines)-1])
			}
			if !last.Correct || last.Failed != 0 || last.Attempted != res.attempted || last.Attempted < 1 {
				t.Errorf("%s: result line %+v", w.name, last)
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics in the result line, want %d", w.name, trace, len(last.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := last.Metrics[m.name]
				if !ok || got.Value == nil || got.Unit != m.unit {
					t.Errorf("%s: metric %s missing or without unit %q in the result line", w.name, m.name, m.unit)
				}
				if n := strings.Count(text, "  "+m.name+" "); n != 1 {
					t.Errorf("%s: metric %s printed %d times in the report, want once", w.name, m.name, n)
				}
			}
			if trace == 0 {
				for _, m := range endToEnd {
					if v := *last.Metrics[m.name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v)
					}
				}
			}
			if isSvc := strings.HasPrefix(w.name, "svc-"); trace == 1 && isSvc != strings.Contains(text, "latency budget of "+w.name) {
				t.Errorf("%s: budget table printed: %t", w.name, !isSvc)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the registry together.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound %v, want %v (present: %t)", kind, m.name, g.Bound, m.bound, bounded)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

// fakeInst is an instance whose oracle fails when told to.
type fakeInst struct{ bad error }

func (f fakeInst) run(int, []*tracer) (int, error) { return 0, nil }
func (f fakeInst) check() error                    { return f.bad }
func (f fakeInst) counts() (counters, error)       { return counters{}, nil }
func (f fakeInst) close() error                    { return nil }

// An engine the run does not gate may fail its oracle (TinySTM does, see
// README.md): the epoch is left out and named, the run goes on.
func TestOtherEngineFailureIsReportedNotFatal(t *testing.T) {
	w := workload{name: "fake", callers: 2, build: func(c buildCtx) (instance, error) {
		if c.kind == "tinystm" && c.epoch == 1 {
			return fakeInst{bad: errors.New("balance not conserved")}, nil
		}
		if c.kind == "rstm" {
			return fakeInst{bad: errors.New("always")}, nil
		}
		return fakeInst{}, nil
	}}
	v, notes := otherEngines(plan{w: w, kind: "swisstm", quota: 400}, "x")
	if !(v["tl2.x"] > 0) || !(v["tinystm.x"] > 0) || v["rstm.x"] != 0 {
		t.Errorf("values %v: want tl2 and tinystm measured, rstm 0", v)
	}
	if len(notes) != 1+otherEngineEpochs || !strings.Contains(notes[0], "tinystm epoch 1") || !strings.Contains(notes[0], "balance not conserved") {
		t.Errorf("notes %q", notes)
	}
	// The gated engine's failure stays fatal.
	w.build = func(buildCtx) (instance, error) { return fakeInst{bad: errors.New("bad")}, nil }
	if _, err := (plan{w: w, kind: "swisstm", epochs: 1, quota: 400}).measure(nil); err == nil {
		t.Error("the gated engine's oracle failure was swallowed")
	}
}
