package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The run shape. A workload is measured in epochs; an epoch builds fresh
// state (timed as set-up), warms up untimed, runs a fixed quota of
// operations (timed), runs the oracle, and drops everything. Every
// end-to-end number is the median over the epochs, which takes out the
// epoch-to-epoch scatter (±8 % here); what is left from run to run is the
// host's drift over minutes (README.md, Noise).
const (
	gatedEpochs  = 12
	tracedEpochs = 6  // alternating: tracing off, on, off, on, off, on
	warmShare    = 10 // the warm-up is a tenth of the quota
)

// plan is one invocation's measurement of one workload.
type plan struct {
	w      workload
	kind   string // engine kind
	seed   uint64
	epochs int
	quota  int  // timed operations per epoch, all callers together
	traced bool // alternate traced and untraced epochs, read runtime counters
	sizes  layerSizes
	tmp    string
}

// epochQuota turns -seconds into the per-epoch operation quota.
func epochQuota(w workload, seconds int) int {
	q := w.opsPerSec * seconds / gatedEpochs
	return max(q/w.callers*w.callers, w.callers*warmShare)
}

// epochResult is what one epoch measured.
type epochResult struct {
	traced  bool
	setupS  float64 // building the epoch's state
	wallS   float64 // timed section
	cpuS    float64 // process user+system CPU over the timed section
	ops     int
	failed  int
	delta   counters // the layers' counters over the timed section
	mallocs uint64   // heap allocations over the timed section (traced invocations)
	gcCPUS  float64  // GC CPU seconds over the timed section (traced invocations)
	spans   [][]span // per caller, traced epochs
}

func (r epochResult) opsPerS() float64    { return float64(r.ops) / r.wallS }
func (r epochResult) cpuUsPerOp() float64 { return r.cpuS * 1e6 / float64(r.ops) }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func plus(x, y uint64) uint64  { return x + y }
func minus(x, y uint64) uint64 { return x - y }

func subCounters(a, b counters) counters {
	return counters{
		eng:       mapEngine(a.eng, b.eng, minus),
		arenaUsed: a.arenaUsed - b.arenaUsed,
		srv:       mapWire(a.srv, b.srv, minus),
	}
}

func addCounters(a, b counters) counters {
	return counters{
		eng:       mapEngine(a.eng, b.eng, plus),
		arenaUsed: a.arenaUsed + b.arenaUsed,
		srv:       mapWire(a.srv, b.srv, plus),
	}
}

// mapEngine combines the engine counters the per-layer metrics read.
func mapEngine(a, b engineStats, f func(x, y uint64) uint64) engineStats {
	return engineStats{
		Commits:         f(a.Commits, b.Commits),
		ROCommits:       f(a.ROCommits, b.ROCommits),
		Aborts:          f(a.Aborts, b.Aborts),
		WaitsCM:         f(a.WaitsCM, b.WaitsCM),
		ReadsLogged:     f(a.ReadsLogged, b.ReadsLogged),
		ReadsDeduped:    f(a.ReadsDeduped, b.ReadsDeduped),
		ValidationReads: f(a.ValidationReads, b.ValidationReads),
	}
}

// mapWire combines the cumulative fields of the wire Stats the per-layer
// metrics read.
func mapWire(a, b wireStats, f func(x, y uint64) uint64) wireStats {
	return wireStats{
		Requests:        f(a.Requests, b.Requests),
		ParseNs:         f(a.ParseNs, b.ParseNs),
		QueueNs:         f(a.QueueNs, b.QueueNs),
		TxnNs:           f(a.TxnNs, b.TxnNs),
		CommitNs:        f(a.CommitNs, b.CommitNs),
		WalNs:           f(a.WalNs, b.WalNs),
		ReplyNs:         f(a.ReplyNs, b.ReplyNs),
		Commits:         f(a.Commits, b.Commits),
		Aborts:          f(a.Aborts, b.Aborts),
		WalFrames:       f(a.WalFrames, b.WalFrames),
		WalBytes:        f(a.WalBytes, b.WalBytes),
		CoalesceBatches: f(a.CoalesceBatches, b.CoalesceBatches),
		CoalesceItems:   f(a.CoalesceItems, b.CoalesceItems),
		FeedEvents:      f(a.FeedEvents, b.FeedEvents),
	}
}

// runEpoch builds, warms, measures, checks and drops one epoch.
func (p plan) runEpoch(epoch int, traced bool) (res epochResult, err error) {
	perCaller := p.quota / p.w.callers
	warm := perCaller / warmShare
	res.traced = traced

	ctx := buildCtx{
		name: p.w.name, kind: p.kind, callers: p.w.callers, seed: p.seed, epoch: epoch,
		perCal: perCaller + warm, tmp: p.tmp,
	}
	if p.w.inputs != nil {
		ctx.in = p.w.inputs(ctx)
	}
	t0 := time.Now()
	in, err := p.w.build(ctx)
	res.setupS = time.Since(t0).Seconds()
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := in.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
		in = nil
		runtime.GC()
	}()

	trs := make([]*tracer, p.w.callers)
	if _, err := in.run(warm, trs); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	if traced {
		origin := time.Now()
		for i := range trs {
			trs[i] = newTracer(origin, p.w.traceEvery, 3*perCaller/p.w.traceEvery+16)
		}
	}
	before, err := in.counts()
	if err != nil {
		return res, err
	}
	var ms0, ms1 runtime.MemStats
	if p.traced {
		runtime.ReadMemStats(&ms0)
		res.gcCPUS = -gcCPUSeconds()
	}
	cpu0 := cpuSeconds()
	t1 := time.Now()
	res.failed, err = in.run(perCaller, trs)
	res.wallS = time.Since(t1).Seconds()
	res.cpuS = cpuSeconds() - cpu0
	res.ops = perCaller * p.w.callers
	if err != nil {
		return res, fmt.Errorf("timed section: %w", err)
	}
	if p.traced {
		res.gcCPUS += gcCPUSeconds()
		runtime.ReadMemStats(&ms1)
		res.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	after, err := in.counts()
	if err != nil {
		return res, err
	}
	res.delta = subCounters(after, before)
	if traced {
		for _, tr := range trs {
			res.spans = append(res.spans, tr.spans)
		}
	}
	if err := in.check(); err != nil {
		return res, fmt.Errorf("oracle: %w", err)
	}
	return res, nil
}

// measure runs every epoch of the plan. With p.traced the odd epochs are
// traced, so the traced and untraced halves see the same host drift.
func (p plan) measure(progress func(epoch int, r epochResult)) ([]epochResult, error) {
	results := make([]epochResult, 0, p.epochs)
	for e := 0; e < p.epochs; e++ {
		r, err := p.runEpoch(e, p.traced && e%2 == 1)
		if err != nil {
			return results, fmt.Errorf("%s epoch %d: %w", p.w.name, e, err)
		}
		if progress != nil {
			progress(e, r)
		}
		results = append(results, r)
	}
	return results, nil
}
