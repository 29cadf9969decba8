// Command benchmark is the repository's one benchmark: four closed-loop
// workloads (two in process, two over loopback TCP), three gated
// end-to-end metrics per workload, and a traced mode that attributes a
// request's time to the layers it crosses. See README.md in this
// directory and BENCHMARK.json at the root of the repository.
//
//	go run ./benchmark                       every workload, gated metrics
//	go run ./benchmark -trace 1              every workload, per-layer metrics
//	go run ./benchmark -selfcheck            every workload twice, A/A
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 24

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	out       string
	selfcheck bool
	smoke     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "how long one workload measures, about, on the reference host")
	flag.IntVar(&o.trace, "trace", 0, "0: gated end-to-end metrics, tracing off; 1: per-layer metrics from traced epochs")
	flag.StringVar(&o.out, "out", "", "with -trace 1: write every span to this file as JSON lines")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and fail if two medians differ by more than a metric's bound")
	flag.BoolVar(&o.smoke, "smoke", false, "one tiny epoch per workload: exercises every path, measures nothing")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds < 1 || o.seconds > 600 {
		return fmt.Errorf("-seconds %d out of range 1..600", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if n := runtime.NumCPU(); n < cores {
		return fmt.Errorf("%d core(s) for %d caller threads: the callers would time-share a core and the numbers would measure the scheduler", n, cores)
	}
	switch {
	case o.selfcheck:
		return selfcheck(o, stdout)
	case o.workload == "":
		_, err := runAll(o, stdout)
		return err
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	_, err := runWorkload(w, o, stdout)
	return err
}

// provenance is stamped on every output.
func provenance(o options, w workload, p plan) string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("provenance: workload=%s engine=%s callers=%d nproc=%d gomaxprocs=%d go=%s kernel=%s commit=%s seed=%d seconds=%d epochs=%d quota_per_epoch=%d warmup_per_epoch=%d trace=%d",
		w.name, p.kind, w.callers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, commit(),
		o.seed, o.seconds, p.epochs, p.quota, p.quota/warmShare, o.trace)
}

// commit names the source: the revision go build stamps into the binary,
// else "unknown" (go run stamps nothing, and the driver's checkout is not
// a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// outcome is what one workload's invocation reports.
type outcome struct {
	values    values
	attempted int
	failed    int
}

// runWorkload measures one workload in this process and prints its
// human-readable report followed by the contract's result line.
func runWorkload(w workload, o options, stdout io.Writer) (outcome, error) {
	root, err := scratchRoot()
	if err != nil {
		return outcome{}, err
	}
	tmp, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(tmp)

	p := plan{w: w, kind: "swisstm", seed: o.seed, epochs: gatedEpochs, quota: epochQuota(w, o.seconds), traced: o.trace == 1, sizes: fullSizes, tmp: tmp}
	if p.traced {
		p.epochs = tracedEpochs
	}
	if o.smoke {
		p.epochs, p.quota, p.sizes = 1, w.callers*warmShare*40, smokeSizes
		if p.traced {
			p.epochs = 2
		}
	}
	fmt.Fprintln(stdout, provenance(o, w, p))

	results, err := p.measure(func(e int, r epochResult) {
		// An epoch whose oracle fails never gets here: measure returns its error.
		fmt.Fprintf(stdout, "epoch %2d traced=%-5t setup %.4f s  timed %.3f s  %.1f ops/s  %.3f cpu-us/op  failed %d  oracle ok\n",
			e, r.traced, r.setupS, r.wallS, r.opsPerS(), r.cpuUsPerOp(), r.failed)
	})
	if err != nil {
		return outcome{}, err
	}
	out := outcome{}
	for _, r := range results {
		out.attempted += r.ops
		out.failed += r.failed
	}

	defs := endToEnd
	if p.traced {
		rep, err := layerValues(p, results)
		if err != nil {
			return outcome{}, err
		}
		out.values, defs = rep.v, perLayer
		fmt.Fprintf(stdout, "per-layer metrics of %s (traced run; 0 = does not apply to this workload):\n", w.name)
		printValues(stdout, defs, out.values, nil)
		for _, n := range rep.notes {
			fmt.Fprintln(stdout, "  note:", n)
		}
		var all [][]span
		for _, r := range results {
			all = append(all, r.spans...)
		}
		printSelfTimes(stdout, all)
		if rep.budget != nil {
			printBudget(stdout, w.name, rep.budget)
		}
		if o.out != "" {
			if err := writeSpans(o.out, w.name, results); err != nil {
				return outcome{}, fmt.Errorf("-out: %w", err)
			}
		}
	} else {
		var disp map[string]summary
		out.values, disp = endToEndValues(results)
		fmt.Fprintf(stdout, "end-to-end metrics of %s (median over %d epochs):\n", w.name, len(results))
		printValues(stdout, defs, out.values, disp)
		var cpu []float64
		for _, r := range results {
			cpu = append(cpu, r.cpuUsPerOp())
		}
		fmt.Fprintf(stdout, "  not gated: process CPU per operation, median %.4f us, spread %.2f %% (per-layer process.cpu_us_per_op)\n",
			median(cpu), 100*summarize(cpu).spread())
	}
	fmt.Fprintln(stdout, resultLine(defs, out.values, out.attempted, out.failed))
	return out, nil
}

// printSelfTimes reports each span name's self time per traced operation.
func printSelfTimes(w io.Writer, perCaller [][]span) {
	self := map[uint8]int64{}
	roots := 0
	for _, spans := range perCaller {
		for name, ns := range selfTimes(spans) {
			self[name] += ns
		}
		for _, s := range spans {
			if s.parent < 0 {
				roots++
			}
		}
	}
	if roots == 0 {
		return
	}
	fmt.Fprintf(w, "span self time per traced operation (%d operations):\n", roots)
	for name := range spanNames {
		if ns, ok := self[uint8(name)]; ok {
			fmt.Fprintf(w, "  %-36s %12.1f ns\n", spanNames[name], float64(ns)/float64(roots))
		}
	}
}

// scratchRoot is where the benchmark keeps its files (the service
// workloads' commit logs): inside the directory it was started from, which
// is all the driver lets it write, next to the driver's build directory.
func scratchRoot() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

// runChild runs one workload in a child process of this same binary, so
// that its mem_mb is its own peak and nothing one workload leaves behind
// (heap, page cache, goroutines) reaches the next.
func runChild(w workload, o options, stdout io.Writer) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.out != "" {
		args = append(args, "-out", o.out+"."+w.name)
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return outcome{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return parseResultLine(buf.Bytes())
}

// parseResultLine reads the contract's result line back.
func parseResultLine(stdout []byte) (outcome, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return outcome{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return outcome{}, errors.New("result line says the outputs were not correct")
	}
	out := outcome{values: values{}, attempted: res.Attempted, failed: res.Failed}
	for name, m := range res.Metrics {
		out.values[name] = m.Value
	}
	return out, nil
}

// runAll runs every workload, each in its own child process, and prints
// one table of all of them.
func runAll(o options, stdout io.Writer) (map[string]outcome, error) {
	all := map[string]outcome{}
	for _, w := range workloads {
		out, err := runChild(w, o, stdout)
		if err != nil {
			return nil, err
		}
		all[w.name] = out
		fmt.Fprintln(stdout)
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%-36s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %22s", w.name)
	}
	fmt.Fprintln(stdout)
	for _, m := range defs {
		fmt.Fprintf(stdout, "%-36s %-6s", m.name, m.unit)
		for _, w := range workloads {
			fmt.Fprintf(stdout, " %22.4f", all[w.name].values[m.name])
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-36s %-6s", "failed / attempted", "count")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %22s", fmt.Sprintf("%d / %d", all[w.name].failed, all[w.name].attempted))
	}
	fmt.Fprintln(stdout)
	return all, nil
}

// selfcheck is the A/A test: the same code, every workload twice. Two
// runs of one build must agree within every metric's bound, or the bound
// cannot tell a regression from noise. A workload's two runs are adjacent,
// so that the host's drift over minutes (README.md, Noise) reaches both
// alike, as it does the interleaved pairs a claimed gain is judged on.
func selfcheck(o options, stdout io.Writer) error {
	o.trace = 0
	sets := [2]map[string]outcome{{}, {}}
	for _, w := range workloads {
		for i := range sets {
			fmt.Fprintf(stdout, "=== selfcheck: %s, run %d of 2 ===\n", w.name, i+1)
			out, err := runChild(w, o, stdout)
			if err != nil {
				return err
			}
			sets[i][w.name] = out
		}
	}
	fmt.Fprintf(stdout, "\n%-22s %-16s %16s %16s %9s %7s\n", "workload", "metric", "run 1", "run 2", "gap %", "bound %")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][w.name].values[m.name], sets[1][w.name].values[m.name]
			gap := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if gap > m.bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-22s %-16s %16.4f %16.4f %9.2f %7.1f%s\n", w.name, m.name, a, b, 100*gap, 100*m.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d of %d metric × workload pairs differ by more than their bound between two runs of the same code", bad, len(workloads)*len(endToEnd))
	}
	fmt.Fprintln(stdout, "selfcheck: every pair within its bound")
	return nil
}

func formatFloat(x float64) string {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}
