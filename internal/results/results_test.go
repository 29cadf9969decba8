package results

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"swisstm/internal/stm"
)

func sample() []Record {
	mk := func(engine string, threads, repeat int, tput float64, ops uint64, ok bool) Record {
		r := Record{
			Experiment: "fig2", Workload: "stmbench7/read-dominated",
			Engine: engine, EngineKind: strings.ToLower(engine),
			Threads: threads, Repeat: repeat, Seed: 42,
			DurationSec: 0.5, Ops: ops, Throughput: tput, CheckedOK: ok,
		}
		r.SetStats(stm.Stats{Commits: ops, Aborts: ops / 10})
		return r
	}
	return []Record{
		mk("SwissTM", 1, 0, 100, 50, true),
		mk("SwissTM", 1, 1, 300, 150, true),
		mk("SwissTM", 1, 2, 200, 100, true),
		mk("SwissTM", 2, 0, 400, 200, true),
		mk("TL2", 1, 0, 80, 40, false),
	}
}

func TestSetStats(t *testing.T) {
	var r Record
	r.SetStats(stm.Stats{Commits: 90, Aborts: 10, AbortCauses: stm.AbortCauses{AbortsWW: 4}, WaitsCM: 7})
	if r.Commits != 90 || r.Aborts != 10 || r.AbortsWW != 4 || r.WaitsCM != 7 {
		t.Fatalf("stats not copied: %+v", r)
	}
	if math.Abs(r.AbortRate-0.1) > 1e-9 {
		t.Fatalf("abort rate = %v, want 0.1", r.AbortRate)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d changed:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{100, 300, 200})
	if s.Median != 200 || s.Mean != 200 || s.Min != 100 || s.Max != 300 {
		t.Fatalf("odd-length summary wrong: %+v", s)
	}
	if math.Abs(s.Stddev-100) > 1e-9 {
		t.Fatalf("sample stddev = %v, want 100", s.Stddev)
	}
	if even := Summarize([]float64{1, 2, 3, 4}); even.Median != 2.5 {
		t.Fatalf("even-length median = %v, want 2.5", even.Median)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Fatalf("empty summary should be zero: %+v", z)
	}
	if one := Summarize([]float64{7}); one.Stddev != 0 || one.Median != 7 {
		t.Fatalf("single-sample summary wrong: %+v", one)
	}
}

func TestAggregate(t *testing.T) {
	aggs := Aggregate(sample())
	// Groups: SwissTM@1 (3 repeats), SwissTM@2, TL2@1 — in first-appearance order.
	if len(aggs) != 3 {
		t.Fatalf("want 3 groups, got %d: %+v", len(aggs), aggs)
	}
	a := aggs[0]
	if a.Engine != "SwissTM" || a.Threads != 1 || a.Repeats != 3 {
		t.Fatalf("first group wrong: %+v", a)
	}
	if a.Throughput.Median != 200 {
		t.Fatalf("median throughput = %v, want 200", a.Throughput.Median)
	}
	if !a.AllChecked {
		t.Fatal("all SwissTM repeats passed their check")
	}
	if aggs[2].Engine != "TL2" || aggs[2].AllChecked {
		t.Fatalf("TL2 group should have AllChecked=false: %+v", aggs[2])
	}
}

// TestAggregateKeepsCellsApart: records that differ in one of the wire
// harness's own axes are distinct configurations, never each other's
// repeats, and the summary CSV says which is which — with all_checked
// still its last column (the Makefile gates match `false$` on it).
func TestAggregateKeepsCellsApart(t *testing.T) {
	base := Record{Experiment: "coalesce-open", Workload: "txkvsrv/update-heavy-zipf-open", Engine: "SwissTM",
		EngineKind: "swisstm", Threads: 2, OfferedRate: 6000, Pipeline: 16, Throughput: 100, Cores: 2, CheckedOK: true}
	batched, faster, deeper, again := base, base, base, base
	batched.CoalesceBatch, batched.CheckedOK = 32, false
	faster.OfferedRate = 8000
	deeper.Pipeline = 32
	again.Repeat, again.Throughput = 1, 300
	aggs := Aggregate([]Record{base, batched, faster, deeper, again})
	if len(aggs) != 4 {
		t.Fatalf("want 4 configurations (one of them with 2 repeats), got %d: %+v", len(aggs), aggs)
	}
	if a := aggs[0]; a.Repeats != 2 || a.Throughput.Median != 200 || a.OfferedRate != 6000 || a.Pipeline != 16 || a.CoalesceBatch != 0 || a.Cores != 2 {
		t.Errorf("first configuration wrong: %+v", a)
	}
	var buf bytes.Buffer
	if err := WriteAggCSV(&buf, aggs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], ",threads,offered_rate,pipeline,coalesce_batch,cores,repeats,") || !strings.HasSuffix(lines[0], ",all_checked") {
		t.Errorf("summary header: %s", lines[0])
	}
	if !strings.Contains(lines[2], ",2,6000,16,32,2,1,") || !strings.HasSuffix(lines[2], ",false") {
		t.Errorf("the batch-32 twin's summary row: %s", lines[2])
	}
}

func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFiles(dir, "fig2", sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := readCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sample()) {
		t.Fatalf("per-repeat CSV has %d records, want %d", len(recs), len(sample()))
	}
	sum, err := os.ReadFile(filepath.Join(dir, "fig2.summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(sum)), "\n")
	if len(lines) != 1+3 { // header + 3 aggregated points
		t.Fatalf("summary CSV has %d lines, want 4:\n%s", len(lines), sum)
	}
	if !strings.Contains(lines[0], "throughput_median") || !strings.Contains(lines[0], "abort_rate_median") {
		t.Fatalf("summary header missing required columns: %s", lines[0])
	}

}

// full is a Record with every field set to a distinct non-zero value.
var full = Record{
	Experiment: "txkv-server", Workload: "txkv/update-heavy, zipf", Engine: "RSTM(lazy/polka)", EngineKind: "rstm",
	Threads: 8, Repeat: 3, Seed: 18446744073709551615, DurationSec: 0.5, Ops: 123456, Throughput: 246912.125,
	Stats: stm.Stats{
		Commits: 11, ROCommits: 12, Aborts: 13,
		AbortCauses: stm.AbortCauses{
			AbortsWW: 14, AbortsValidRead: 16, AbortsValidCommit: 17, AbortsLocked: 18,
			AbortsKilled: 19, AbortsExplicit: 20, AbortsUser: 21, LockAcquireFail: 23,
		},
		WaitsCM: 22, AbortsUnwound: 24, AbortsReturned: 25,
		ReadsLogged: 26, ReadsDeduped: 27, Validations: 28, ValidationReads: 29,
	},
	LatP50Ns: 29000, LatP99Ns: 1.5e+06, LatP999Ns: 2.5e+21,
	SrvP50Ns: 33, SrvP99Ns: 34, SrvP999Ns: 35,
	PhaseParseNs: 36.25, PhaseQueueNs: 1e-07, PhaseTxnNs: 38, PhaseCommitNs: 39.5, PhaseReplyNs: 40,
	OfferedRate: 4000, AchievedRate: 3999.9, LateOps: 43,
	AbortRate: 0.1, CheckedOK: true,
	PhaseWalNs: 46.75, WalFrames: 47, WalBytes: 48, WalRecoveredFrames: 49,
	Retries: 50, Reconnects: 51, Sheds: 52, DeadlineExceeded: 53,
	Pipeline: 16, CoalesceBatch: 32, CoalesceBatches: 56, CoalesceItems: 57,
	FeedEvents: 58, WalFsyncs: 59, Cores: 60,
}

// TestGoldenRow pins the CSV bytes of one fully populated record: the
// column order, the shortest-round-trip float format and the quoting of a
// cell with a comma are what external tooling reads.
func TestGoldenRow(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Record{full}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Errorf("CSV changed:\n got %q\nwant %q", got, golden)
	}
	recs, err := readCSV(strings.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != full {
		t.Errorf("golden CSV parsed to %+v\nwant %+v", recs, full)
	}
}

// golden was written by the hand-kept header / row() pair the reflected
// codec replaced; it changes only with a deliberate schema change.
const golden = `experiment,workload,engine,engine_kind,threads,repeat,seed,duration_sec,ops,throughput,commits,ro_commits,aborts,aborts_ww,aborts_valid_read,aborts_valid_commit,aborts_locked,aborts_killed,aborts_explicit,aborts_user,lock_acquire_fail,waits_cm,aborts_unwound,aborts_returned,reads_logged,reads_deduped,validations,validation_reads,lat_p50_ns,lat_p99_ns,lat_p999_ns,srv_p50_ns,srv_p99_ns,srv_p999_ns,phase_parse_ns,phase_queue_ns,phase_txn_ns,phase_commit_ns,phase_reply_ns,offered_rate,achieved_rate,late_ops,abort_rate,checked_ok,phase_wal_ns,wal_frames,wal_bytes,wal_recovered_frames,retries,reconnects,sheds,deadline_exceeded,pipeline,coalesce_batch,coalesce_batches,coalesce_items,feed_events,wal_fsyncs,cores
txkv-server,"txkv/update-heavy, zipf",RSTM(lazy/polka),rstm,8,3,18446744073709551615,0.5,123456,246912.125,11,12,13,14,16,17,18,19,20,21,23,22,24,25,26,27,28,29,29000,1.5e+06,2.5e+21,33,34,35,36.25,1e-07,38,39.5,40,4000,3999.9,43,0.1,true,46.75,47,48,49,50,51,52,53,16,32,56,57,58,59,60
`

// readCSV parses a CSV written by WriteCSV, the round trip the tests
// check the writer with: it refuses a header that is not Record's, a
// short row and a cell that does not parse.
func readCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("results: empty CSV")
	}
	if !slices.Equal(rows[0], header) {
		return nil, fmt.Errorf("results: unexpected CSV header %v", rows[0])
	}
	recs := make([]Record, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("results: row has %d columns, want %d", len(row), len(header))
		}
		var rec Record
		v := reflect.ValueOf(&rec).Elem()
		for c, cell := range row {
			if err := setField(v.FieldByIndex(columns[c].Index), cell); err != nil {
				return nil, fmt.Errorf("results: data row %d: %s: %w", i+1, header[c], err)
			}
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// setField parses one CSV cell into the record field of the same column.
func setField(f reflect.Value, cell string) error {
	switch f.Kind() {
	case reflect.String:
		f.SetString(cell)
	case reflect.Int:
		n, err := strconv.Atoi(cell)
		if err != nil {
			return err
		}
		f.SetInt(int64(n))
	case reflect.Uint64:
		n, err := strconv.ParseUint(cell, 10, 64)
		if err != nil {
			return err
		}
		f.SetUint(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return err
		}
		f.SetFloat(x)
	case reflect.Bool:
		if cell != "true" && cell != "false" {
			return fmt.Errorf("bad bool value %q", cell)
		}
		f.SetBool(cell == "true")
	}
	return nil
}
