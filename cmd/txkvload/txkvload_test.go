package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"swisstm/internal/results"
)

// writePlan puts a -config file with the given JSON into the test's
// temporary directory.
func writePlan(t *testing.T, js string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRejections: everything the plan loader and the flag parser refuse,
// each with the words the user needs to find the mistake.
func TestRejections(t *testing.T) {
	exp := func(fields string) string { return `{"experiments": [{` + fields + `}]}` }
	for _, c := range []struct {
		name, plan string // plan: JSON for -config ("" = flags only)
		args       []string
		want       string
	}{
		{"missing name", exp(`"mixes": ["transfer"], "conns": [1], "rates": [0], "ops": 10`), nil, "needs name"},
		{"missing mixes", exp(`"name": "x", "conns": [1], "rates": [0], "ops": 10`), nil, "needs name, mixes"},
		{"missing conns", exp(`"name": "x", "mixes": ["transfer"], "rates": [0], "ops": 10`), nil, "conns"},
		{"missing rates", exp(`"name": "x", "mixes": ["transfer"], "conns": [1], "ops": 10`), nil, "rates"},
		{"missing ops", exp(`"name": "x", "mixes": ["transfer"], "conns": [1], "rates": [0]`), nil, "ops"},
		{"zero conns", exp(`"name": "x", "mixes": ["transfer"], "conns": [0], "rates": [0], "ops": 10`), nil, "bad connection count 0"},
		{"unknown mix", exp(`"name": "x", "mixes": ["scan-heavy"], "conns": [1], "rates": [0], "ops": 10`), nil, `unknown mix "scan-heavy"`},
		{"zipf out of range", `{"zipf": 1, "experiments": [{"name": "x", "mixes": ["transfer"], "conns": [1], "rates": [0], "ops": 10}]}`, nil, "zipf 1 out of range"},
		{"unknown engine", `{"engines": ["swistm"], "experiments": [{"name": "x", "mixes": ["transfer"], "conns": [1], "rates": [0], "ops": 10}]}`, nil, `unknown engine kind "swistm" (want swisstm, tl2, tinystm, rstm)`},
		{"no experiments", `{"keys": 64}`, nil, "no experiments"},
		{"not JSON", `{"keys": `, nil, "plan.json"},
		{"retired key", exp(`"name": "x", "mixes": ["transfer"], "conns": [1], "rates": [0], "ops": 10, "coalesce_wait_us": 200`), nil, `unknown field "coalesce_wait_us"`},
		{"plan-field flag beside -config", exp(`"name": "x", "mixes": ["transfer"], "conns": [1], "rates": [0], "ops": 10`), []string{"-conns", "4"}, "-conns is a field of the plan"},
		{"unknown engine flag", "", []string{"-engines", "swistm"}, `unknown engine kind "swistm"`},
		{"unknown mix flag", "", []string{"-mixes", "transfer,scan-heavy"}, `unknown mix "scan-heavy"`},
		{"bad -conns", "", []string{"-conns", "1,x"}, `bad -conns "1,x"`},
		{"zipf flag out of range", "", []string{"-zipf", "-0.5"}, "out of range"},
		{"zero -ops", "", []string{"-ops", "0"}, "ops"},
		{"bad -fsync", "", []string{"-fsync", "sometimes"}, "sometimes"},
		{"pipeline beside -retries", "", []string{"-pipeline", "4", "-retries", "2"}, "pipelin"},
	} {
		args := append([]string{"-launch"}, c.args...)
		if c.plan != "" {
			args = append(args, "-config", writePlan(t, c.plan))
		}
		_, err := parseArgs(args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parseArgs(%q) = %v, want an error with %q", c.name, args, err, c.want)
		}
	}
	for _, args := range [][]string{
		{},
		{"-launch", "-addr", "127.0.0.1:1"},
		{"-addr", "127.0.0.1:1", "-engines", "swisstm,tl2"},
		{"-addr", "127.0.0.1:1", "-engines", "swisstm", "-coalesce-batch", "8"},
		{"-addr", "127.0.0.1:1", "-engines", "swisstm", "-wal", t.TempDir()},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q): no error for an impossible -addr/-launch combination", args)
		}
	}
}

// TestFlagsAndConfigAgree: the two `make smoke-server` invocations, as
// flags and as the config that spells the same point, are one plan and
// one list of cells, seeds included.
func TestFlagsAndConfigAgree(t *testing.T) {
	for _, c := range []struct {
		flags []string
		plan  string
	}{
		{
			[]string{"-engines", "swisstm,tl2,tinystm,rstm", "-mixes", "transfer", "-conns", "2", "-ops", "400", "-keys", "512", "-seed", "1", "-name", "closed"},
			`{"keys": 512, "zipf": 0.99, "seed": 1, "repeats": 1, "late_ms": 1, "engines": ["swisstm","tl2","tinystm","rstm"],
			  "experiments": [{"name": "closed", "mixes": ["transfer"], "conns": [2], "rates": [0], "ops": 400}]}`,
		},
		{
			[]string{"-engines", "swisstm,tl2,tinystm,rstm", "-mixes", "read-heavy", "-conns", "2", "-ops", "400", "-keys", "512", "-seed", "2", "-rate", "4000", "-name", "open"},
			`{"keys": 512, "zipf": 0.99, "seed": 2, "repeats": 1, "late_ms": 1, "engines": ["swisstm","tl2","tinystm","rstm"],
			  "experiments": [{"name": "open", "mixes": ["read-heavy"], "conns": [2], "rates": [4000], "ops": 400}]}`,
		},
	} {
		byFlags, err := parseArgs(append([]string{"-launch"}, c.flags...))
		if err != nil {
			t.Fatal(err)
		}
		byConfig, err := parseArgs([]string{"-launch", "-config", writePlan(t, c.plan)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(byFlags.plan, byConfig.plan) {
			t.Errorf("plans differ:\n flags  %+v\n config %+v", byFlags.plan, byConfig.plan)
		}
		if len(byFlags.cells) != 4 || tuples(byFlags.cells) != tuples(byConfig.cells) {
			t.Errorf("cells differ:\n flags\n%s\n config\n%s", tuples(byFlags.cells), tuples(byConfig.cells))
		}
	}
}

// tuples prints what identifies each cell and its RNG stream, one line a
// cell: experiment, workload, engine kind, conns, rate, coalesce batch,
// repeat, seed.
func tuples(cells []cell) string {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s,%s,%s,%d,%g,%d,%d,%d\n", c.exp.Name, c.wl, c.spec.Kind, c.conns, c.rate, c.batch, c.rep, c.seed)
	}
	return b.String()
}

// TestShippedGridCells: scripts/experiments.json expands to the 72 cells,
// in the order and with the seeds, that cmd/grid ran before it folded into
// this driver (gridCells was recorded from that binary: `grid -ops 150`,
// the same columns of its grid.csv). -ops overrides every cell's count.
func TestShippedGridCells(t *testing.T) {
	j, err := parseArgs([]string{"-launch", "-config", "../../scripts/experiments.json", "-name", "grid", "-ops", "150"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tuples(j.cells); got != gridCells {
		t.Errorf("cells of scripts/experiments.json changed:\n got\n%s\nwant\n%s", got, gridCells)
	}
	for _, c := range j.cells {
		if c.exp.Ops != 150 {
			t.Fatalf("-ops 150 left %s at %d ops", c.exp.Name, c.exp.Ops)
		}
	}
	if j, err = parseArgs([]string{"-launch", "-config", "../../scripts/experiments.json", "-ops", "0"}); err != nil || j.cells[0].exp.Ops != 2000 {
		t.Errorf("-ops 0 must keep the plan's own counts: %v", err)
	}
}

// TestOneCellEndToEnd runs a coalescing on/off twin over real TCP: two
// records, and two summary rows — the twins are not each other's repeats —
// with the oracles green.
func TestOneCellEndToEnd(t *testing.T) {
	out := t.TempDir()
	j, err := parseArgs([]string{"-launch", "-out", out, "-name", "twin", "-config", writePlan(t,
		`{"keys": 128, "zipf": 0.99, "seed": 3, "engines": ["swisstm"], "experiments": [
		   {"name": "twin", "mixes": ["update-heavy"], "conns": [2], "rates": [0], "ops": 60, "pipeline": 4, "coalesce_batch": [0, 8]}]}`)})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := j.run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].CoalesceBatch != 0 || recs[1].CoalesceBatch != 8 || recs[1].CoalesceBatches == 0 {
		t.Fatalf("want the coalescing-off and the batch-8 record, the second with flushes counted: %+v", recs)
	}
	for _, r := range recs {
		if !r.CheckedOK || r.Ops != 60 || r.Pipeline != 4 || r.Threads != 2 || r.Cores < 1 || r.Experiment != "twin" {
			t.Errorf("bad record: %+v", r)
		}
	}
	if err := results.WriteFiles(j.outDir, j.name, recs); err != nil {
		t.Fatal(err)
	}
	sum, err := os.ReadFile(filepath.Join(out, "twin.summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(sum)), "\n")
	if len(lines) != 3 {
		t.Fatalf("summary has %d lines, want a header and one row per twin:\n%s", len(lines), sum)
	}
	for _, row := range lines[1:] {
		if !strings.HasSuffix(row, ",true") {
			t.Errorf("summary row does not end in all_checked=true: %s", row)
		}
	}
}

// TestWalFreshLogPerCell: a second invocation on the same -wal directory
// starts its cell on an empty log, as the first one did, instead of
// replaying the first one's.
func TestWalFreshLogPerCell(t *testing.T) {
	walDir := t.TempDir()
	for run := 1; run <= 2; run++ {
		j, err := parseArgs([]string{"-launch", "-engines", "swisstm", "-mixes", "update-heavy", "-conns", "1", "-ops", "50", "-keys", "64", "-wal", walDir})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := j.run(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].WalFrames == 0 || recs[0].WalRecoveredFrames != 0 {
			t.Fatalf("run %d: want one record that logged frames and recovered none: %+v", run, recs)
		}
	}
}

const gridCells = `closed-sweep,txkvsrv/read-heavy-zipf-closed,swisstm,1,0,0,0,9074931552370761075
closed-sweep,txkvsrv/read-heavy-zipf-closed,swisstm,2,0,0,0,17552492591893760061
closed-sweep,txkvsrv/read-heavy-zipf-closed,swisstm,4,0,0,0,15707871343100046956
closed-sweep,txkvsrv/read-heavy-zipf-closed,swisstm,8,0,0,0,1628931629677166745
closed-sweep,txkvsrv/update-heavy-zipf-closed,swisstm,1,0,0,0,4306875705344207930
closed-sweep,txkvsrv/update-heavy-zipf-closed,swisstm,2,0,0,0,12221517592692354997
closed-sweep,txkvsrv/update-heavy-zipf-closed,swisstm,4,0,0,0,11060596562988616239
closed-sweep,txkvsrv/update-heavy-zipf-closed,swisstm,8,0,0,0,10267306629535401571
closed-sweep,txkvsrv/transfer-zipf-closed,swisstm,1,0,0,0,1949079215111725958
closed-sweep,txkvsrv/transfer-zipf-closed,swisstm,2,0,0,0,12766541797747367993
closed-sweep,txkvsrv/transfer-zipf-closed,swisstm,4,0,0,0,3223383902765720798
closed-sweep,txkvsrv/transfer-zipf-closed,swisstm,8,0,0,0,13677852347291304700
closed-sweep,txkvsrv/read-heavy-zipf-closed,tl2,1,0,0,0,10731382221406491156
closed-sweep,txkvsrv/read-heavy-zipf-closed,tl2,2,0,0,0,9061980025549725507
closed-sweep,txkvsrv/read-heavy-zipf-closed,tl2,4,0,0,0,11300933149183318230
closed-sweep,txkvsrv/read-heavy-zipf-closed,tl2,8,0,0,0,15740913671551289639
closed-sweep,txkvsrv/update-heavy-zipf-closed,tl2,1,0,0,0,15430316405552725895
closed-sweep,txkvsrv/update-heavy-zipf-closed,tl2,2,0,0,0,12936287165275180998
closed-sweep,txkvsrv/update-heavy-zipf-closed,tl2,4,0,0,0,5622072075575497137
closed-sweep,txkvsrv/update-heavy-zipf-closed,tl2,8,0,0,0,2809514671853196331
closed-sweep,txkvsrv/transfer-zipf-closed,tl2,1,0,0,0,14080509833103314672
closed-sweep,txkvsrv/transfer-zipf-closed,tl2,2,0,0,0,15780577316846973034
closed-sweep,txkvsrv/transfer-zipf-closed,tl2,4,0,0,0,17710105600508002652
closed-sweep,txkvsrv/transfer-zipf-closed,tl2,8,0,0,0,15348192003684537030
closed-sweep,txkvsrv/read-heavy-zipf-closed,tinystm,1,0,0,0,4845956799016472729
closed-sweep,txkvsrv/read-heavy-zipf-closed,tinystm,2,0,0,0,17637408788616592838
closed-sweep,txkvsrv/read-heavy-zipf-closed,tinystm,4,0,0,0,10339538776192575958
closed-sweep,txkvsrv/read-heavy-zipf-closed,tinystm,8,0,0,0,9496852081798979988
closed-sweep,txkvsrv/update-heavy-zipf-closed,tinystm,1,0,0,0,18372042105114746312
closed-sweep,txkvsrv/update-heavy-zipf-closed,tinystm,2,0,0,0,10757654119048549717
closed-sweep,txkvsrv/update-heavy-zipf-closed,tinystm,4,0,0,0,9942155099919617959
closed-sweep,txkvsrv/update-heavy-zipf-closed,tinystm,8,0,0,0,1910354708727350483
closed-sweep,txkvsrv/transfer-zipf-closed,tinystm,1,0,0,0,4993464748522184978
closed-sweep,txkvsrv/transfer-zipf-closed,tinystm,2,0,0,0,2200579274706648673
closed-sweep,txkvsrv/transfer-zipf-closed,tinystm,4,0,0,0,8153679964004973847
closed-sweep,txkvsrv/transfer-zipf-closed,tinystm,8,0,0,0,3860746408712372625
closed-sweep,txkvsrv/read-heavy-zipf-closed,rstm,1,0,0,0,13345060568722228744
closed-sweep,txkvsrv/read-heavy-zipf-closed,rstm,2,0,0,0,2296642323245051836
closed-sweep,txkvsrv/read-heavy-zipf-closed,rstm,4,0,0,0,14951952747139381729
closed-sweep,txkvsrv/read-heavy-zipf-closed,rstm,8,0,0,0,697954051277571233
closed-sweep,txkvsrv/update-heavy-zipf-closed,rstm,1,0,0,0,2676510481321151156
closed-sweep,txkvsrv/update-heavy-zipf-closed,rstm,2,0,0,0,14180500014784415334
closed-sweep,txkvsrv/update-heavy-zipf-closed,rstm,4,0,0,0,12531432837710434416
closed-sweep,txkvsrv/update-heavy-zipf-closed,rstm,8,0,0,0,689825210655019575
closed-sweep,txkvsrv/transfer-zipf-closed,rstm,1,0,0,0,3474302818052878087
closed-sweep,txkvsrv/transfer-zipf-closed,rstm,2,0,0,0,1123054844821820366
closed-sweep,txkvsrv/transfer-zipf-closed,rstm,4,0,0,0,13825005995640671315
closed-sweep,txkvsrv/transfer-zipf-closed,rstm,8,0,0,0,9820166591280414953
open-latency,txkvsrv/read-heavy-zipf-open,swisstm,4,2000,0,0,13878881527695241197
open-latency,txkvsrv/read-heavy-zipf-open,swisstm,4,8000,0,0,13878881527695241197
open-latency,txkvsrv/transfer-zipf-open,swisstm,4,2000,0,0,2016354150190999259
open-latency,txkvsrv/transfer-zipf-open,swisstm,4,8000,0,0,2016354150190999259
open-latency,txkvsrv/read-heavy-zipf-open,tl2,4,2000,0,0,3193014235375817260
open-latency,txkvsrv/read-heavy-zipf-open,tl2,4,8000,0,0,3193014235375817260
open-latency,txkvsrv/transfer-zipf-open,tl2,4,2000,0,0,3640122310116299269
open-latency,txkvsrv/transfer-zipf-open,tl2,4,8000,0,0,3640122310116299269
open-latency,txkvsrv/read-heavy-zipf-open,tinystm,4,2000,0,0,11860276094521236299
open-latency,txkvsrv/read-heavy-zipf-open,tinystm,4,8000,0,0,11860276094521236299
open-latency,txkvsrv/transfer-zipf-open,tinystm,4,2000,0,0,17124677435573172230
open-latency,txkvsrv/transfer-zipf-open,tinystm,4,8000,0,0,17124677435573172230
open-latency,txkvsrv/read-heavy-zipf-open,rstm,4,2000,0,0,12492036097518009743
open-latency,txkvsrv/read-heavy-zipf-open,rstm,4,8000,0,0,12492036097518009743
open-latency,txkvsrv/transfer-zipf-open,rstm,4,2000,0,0,10730815382056544216
open-latency,txkvsrv/transfer-zipf-open,rstm,4,8000,0,0,10730815382056544216
coalesce-open,txkvsrv/update-heavy-zipf-open,swisstm,2,6000,0,0,7782440662839758464
coalesce-open,txkvsrv/update-heavy-zipf-open,swisstm,2,6000,32,0,17187223904226692168
coalesce-open,txkvsrv/update-heavy-zipf-open,tl2,2,6000,0,0,13489671366406861540
coalesce-open,txkvsrv/update-heavy-zipf-open,tl2,2,6000,32,0,16157076626772920791
coalesce-open,txkvsrv/update-heavy-zipf-open,tinystm,2,6000,0,0,5926271690565389847
coalesce-open,txkvsrv/update-heavy-zipf-open,tinystm,2,6000,32,0,13892342613197648498
coalesce-open,txkvsrv/update-heavy-zipf-open,rstm,2,6000,0,0,5733596171992985012
coalesce-open,txkvsrv/update-heavy-zipf-open,rstm,2,6000,32,0,119420443735346784
`
