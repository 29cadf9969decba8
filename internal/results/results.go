// Package results is the machine-readable measurement layer of the
// experiment pipeline. Every experiment run produces one Record per
// (engine, workload, threads, repeat) point; records are written as CSV
// (one file pair per experiment, see DESIGN.md §5 for the schema)
// and aggregated across repeats into summary rows (median/mean/stddev/
// min/max) that the paper-style text tables and the CI smoke gate read.
package results

import (
	"encoding/csv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"

	"swisstm/internal/stm"
)

// Record is one measured run: a single repeat of one engine on one
// workload at one thread count. The struct is the CSV schema
// (DESIGN.md §5): a column is a field, named by its json tag, in field
// order.
type Record struct {
	Experiment  string  `json:"experiment"`   // e.g. "fig2", "table1", "txkv"
	Workload    string  `json:"workload"`     // e.g. "stmbench7/read-dominated", "stamp/intruder"
	Engine      string  `json:"engine"`       // display name, e.g. "SwissTM", "RSTM(lazy/polka)"
	EngineKind  string  `json:"engine_kind"`  // "swisstm" | "tl2" | "tinystm" | "rstm"
	Threads     int     `json:"threads"`      // worker count
	Repeat      int     `json:"repeat"`       // 0-based repeat index
	Seed        uint64  `json:"seed"`         // per-run derived seed
	DurationSec float64 `json:"duration_sec"` // wall time of the measured phase
	Ops         uint64  `json:"ops"`          // committed operations
	Throughput  float64 `json:"throughput"`   // ops per second

	// Full stm.Stats breakdown, aggregated across worker threads; its
	// columns are stm.Stats' json tags, the abort causes among them.
	stm.Stats

	// Network-service latency/load profile (DESIGN.md §10), populated
	// by the txkv load harness; zero for in-process experiment runs.
	// Latency percentiles are client-observed nanoseconds (closed loop:
	// from request send; open loop: from scheduled arrival, queueing
	// delay included). Phase columns are the server's mean per-request
	// nanoseconds in each service phase.
	LatP50Ns  float64 `json:"lat_p50_ns"`
	LatP99Ns  float64 `json:"lat_p99_ns"`
	LatP999Ns float64 `json:"lat_p999_ns"`
	// Server-side request-latency percentiles (ns), read from the
	// server's /metrics histograms at the end of the run. They cover the
	// server's whole lifetime, so they equal the run's own distribution
	// only when the server was launched for the run (-launch mode);
	// zero for in-process runs.
	SrvP50Ns      uint64  `json:"srv_p50_ns"`
	SrvP99Ns      uint64  `json:"srv_p99_ns"`
	SrvP999Ns     uint64  `json:"srv_p999_ns"`
	PhaseParseNs  float64 `json:"phase_parse_ns"`
	PhaseQueueNs  float64 `json:"phase_queue_ns"`
	PhaseTxnNs    float64 `json:"phase_txn_ns"`
	PhaseCommitNs float64 `json:"phase_commit_ns"`
	PhaseReplyNs  float64 `json:"phase_reply_ns"`
	// OfferedRate is the open-loop arrival rate in ops/sec (0 = closed
	// loop); AchievedRate is completed ops over the run duration. A gap
	// between them, or a non-zero LateOps count, is saturation made
	// visible rather than absorbed by closed-loop backpressure.
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	LateOps      uint64  `json:"late_ops"`

	AbortRate float64 `json:"abort_rate"` // aborts / (commits + aborts)
	CheckedOK bool    `json:"checked_ok"` // post-run validation outcome

	// Durable-commit-log profile (DESIGN.md §12), populated by the txkv
	// load harness when the server runs with -wal; zero otherwise.
	// PhaseWalNs is the server's mean per-request time spent appending
	// to (and, under -fsync group, waiting on) the commit log.
	PhaseWalNs         float64 `json:"phase_wal_ns"`
	WalFrames          uint64  `json:"wal_frames"`           // redo records appended over the run
	WalBytes           uint64  `json:"wal_bytes"`            // log bytes written over the run
	WalRecoveredFrames uint64  `json:"wal_recovered_frames"` // frames replayed at server start

	// Client-resilience counters (DESIGN.md §10): per-request retries
	// after transport failures and successful reconnects, summed across
	// the load generator's connections.
	Retries    uint64 `json:"retries"`
	Reconnects uint64 `json:"reconnects"`

	// Admission-control counters (DESIGN.md §13), diffed over the run
	// window from the server's Stats: requests shed before execution
	// (queue full, queue wait limit, draining) and requests dropped
	// because their deadline budget expired server-side.
	Sheds            uint64 `json:"sheds"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`

	// Pipelining/coalescing profile (DESIGN.md §14), populated by the
	// txkv load harness: the run's client config (per-connection
	// pipeline window, coalesce batch size; 0 = off) and the server-side
	// deltas over the run window — coalesced flushes and the items they
	// absorbed, change-feed events published, and commit-log fsyncs
	// (the group-commit amortization evidence: with coalescing on,
	// commits/op and fsyncs/op drop at equal offered rate).
	Pipeline        int    `json:"pipeline"`
	CoalesceBatch   int    `json:"coalesce_batch"`
	CoalesceBatches uint64 `json:"coalesce_batches"`
	CoalesceItems   uint64 `json:"coalesce_items"`
	FeedEvents      uint64 `json:"feed_events"`
	WalFsyncs       uint64 `json:"wal_fsyncs"`

	// Cores is runtime.GOMAXPROCS(0) of the measuring process: a row with
	// Threads above it ran oversubscribed and is not a scaling point.
	Cores int `json:"cores"`
}

// SetStats sets the per-run statistics breakdown and the abort rate.
func (r *Record) SetStats(s stm.Stats) {
	r.Stats = s
	r.AbortRate = s.AbortRate()
}

// columns are Record's CSV columns: its leaf fields in field order, the
// fields of an embedded struct in its place — the order encoding/json
// writes them in. Building it checks that every leaf is of a kind row
// converts.
var columns = func() []reflect.StructField {
	var cols []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Record{})) {
		switch f.Type.Kind() {
		case reflect.Struct:
			if !f.Anonymous {
				panic("results: Record." + f.Name + " is a struct the CSV codec does not flatten")
			}
		case reflect.String, reflect.Int, reflect.Uint64, reflect.Float64, reflect.Bool:
			cols = append(cols, f)
		default:
			panic("results: Record." + f.Name + " has a kind the CSV codec does not convert")
		}
	}
	return cols
}()

// header is the CSV header row: the columns' json tags.
var header = func() []string {
	h := make([]string, len(columns))
	for i, f := range columns {
		h[i] = f.Tag.Get("json")
	}
	return h
}()

func (r Record) row() []string {
	v := reflect.ValueOf(r)
	row := make([]string, len(columns))
	for i, c := range columns {
		switch f := v.FieldByIndex(c.Index); f.Kind() {
		case reflect.String:
			row[i] = f.String()
		case reflect.Int:
			row[i] = strconv.FormatInt(f.Int(), 10)
		case reflect.Uint64:
			row[i] = strconv.FormatUint(f.Uint(), 10)
		case reflect.Float64:
			row[i] = strconv.FormatFloat(f.Float(), 'g', -1, 64)
		case reflect.Bool:
			row[i] = strconv.FormatBool(f.Bool())
		}
	}
	return row
}

// WriteCSV writes recs as CSV with a header row.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range recs {
		if err := cw.Write(r.row()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary is a distribution over the repeats of one metric.
type Summary struct {
	Median float64
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes the five-number summary of vals (sample stddev).
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s := Summary{Min: sorted[0], Max: sorted[len(sorted)-1]}
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	for _, v := range sorted {
		s.Mean += v
	}
	s.Mean /= float64(len(sorted))
	if len(sorted) > 1 {
		var ss float64
		for _, v := range sorted {
			d := v - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return s
}

// Agg is one aggregated point: all repeats of one configuration —
// (experiment, workload, engine, threads) and the wire harness's own axes
// (offered rate, pipeline window, coalesce batch; zero for in-process
// runs) — folded into distribution summaries.
type Agg struct {
	Experiment    string
	Workload      string
	Engine        string
	EngineKind    string
	Threads       int
	OfferedRate   float64
	Pipeline      int
	CoalesceBatch int
	Cores         int
	Repeats       int
	Throughput    Summary
	Duration      Summary
	Ops           Summary
	AbortRate     Summary
	AllChecked    bool // every repeat passed its post-run check
}

// Aggregate groups recs by configuration (Agg's columns up to Threads plus
// the three wire axes, so distinct cells are never reported as repeats of
// one another) and summarizes each group, preserving first-appearance order.
func Aggregate(recs []Record) []Agg {
	type key struct {
		exp, wl, eng             string
		threads, pipeline, batch int
		rate                     float64
	}
	order := []key{}
	groups := map[key][]Record{}
	for _, r := range recs {
		k := key{r.Experiment, r.Workload, r.Engine, r.Threads, r.Pipeline, r.CoalesceBatch, r.OfferedRate}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	aggs := make([]Agg, 0, len(order))
	for _, k := range order {
		g := groups[k]
		a := Agg{
			Experiment: k.exp, Workload: k.wl, Engine: k.eng,
			EngineKind: g[0].EngineKind, Threads: k.threads,
			OfferedRate: k.rate, Pipeline: k.pipeline, CoalesceBatch: k.batch,
			Cores: g[0].Cores, Repeats: len(g), AllChecked: true,
		}
		var tp, dur, ops, ar []float64
		for _, r := range g {
			tp = append(tp, r.Throughput)
			dur = append(dur, r.DurationSec)
			ops = append(ops, float64(r.Ops))
			ar = append(ar, r.AbortRate)
			if !r.CheckedOK {
				a.AllChecked = false
			}
		}
		a.Throughput = Summarize(tp)
		a.Duration = Summarize(dur)
		a.Ops = Summarize(ops)
		a.AbortRate = Summarize(ar)
		aggs = append(aggs, a)
	}
	return aggs
}

// aggHeader is the summary-CSV column order; it must match Agg.row().
var aggHeader = []string{
	"experiment", "workload", "engine", "engine_kind", "threads",
	"offered_rate", "pipeline", "coalesce_batch", "cores", "repeats",
	"throughput_median", "throughput_mean", "throughput_stddev",
	"throughput_min", "throughput_max",
	"duration_sec_median", "ops_median", "abort_rate_median",
	"all_checked",
}

func (a Agg) row() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	return []string{
		a.Experiment, a.Workload, a.Engine, a.EngineKind,
		strconv.Itoa(a.Threads), strconv.FormatFloat(a.OfferedRate, 'g', -1, 64),
		strconv.Itoa(a.Pipeline), strconv.Itoa(a.CoalesceBatch),
		strconv.Itoa(a.Cores), strconv.Itoa(a.Repeats),
		f(a.Throughput.Median), f(a.Throughput.Mean), f(a.Throughput.Stddev),
		f(a.Throughput.Min), f(a.Throughput.Max),
		strconv.FormatFloat(a.Duration.Median, 'f', 6, 64),
		f(a.Ops.Median), strconv.FormatFloat(a.AbortRate.Median, 'f', 6, 64),
		strconv.FormatBool(a.AllChecked),
	}
}

// WriteAggCSV writes aggregated rows as CSV with a header row.
func WriteAggCSV(w io.Writer, aggs []Agg) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(aggHeader); err != nil {
		return err
	}
	for _, a := range aggs {
		if err := cw.Write(a.row()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFiles writes one experiment's records under dir as a CSV pair:
// <name>.csv holds the per-repeat records and <name>.summary.csv the
// aggregated rows — one directory per invocation, one file pair per
// experiment.
func WriteFiles(dir, name string, recs []Record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(filepath.Join(dir, name+".csv"), func(w io.Writer) error {
		return WriteCSV(w, recs)
	}); err != nil {
		return err
	}
	return write(filepath.Join(dir, name+".summary.csv"), func(w io.Writer) error {
		return WriteAggCSV(w, Aggregate(recs))
	})
}
