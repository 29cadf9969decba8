package main

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
)

// endToEndValues reduces a gated run's epochs to the end-to-end metrics
// (medians over the epochs; mem_mb is the process's one peak) and keeps
// each metric's per-epoch dispersion for the human-readable lines.
func endToEndValues(results []epochResult) (values, map[string]summary) {
	var ops, setup []float64
	for _, r := range results {
		ops = append(ops, r.opsPerS())
		setup = append(setup, r.setupS)
	}
	disp := map[string]summary{
		"ops_per_s": summarize(ops),
		"setup_s":   summarize(setup),
	}
	v := values{"mem_mb": peakRSSMB()}
	for name, s := range disp {
		v[name] = s.Median
	}
	return v, disp
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budget is the service latency budget: measured rows, then what they
// leave of the client's p50.
type budget struct {
	p50     float64 // txkvclient.lat_p50_us
	samples int     // request spans behind it
	rows    []budgetRow
}

type budgetRow struct {
	name string
	us   float64
}

// layerReport is what a traced invocation prints.
type layerReport struct {
	v      values
	notes  []string // the percentile level a tail metric was read at
	budget *budget  // service workloads only
}

// tailUs reads the p99 of sorted durations, or the highest level that
// still has ten samples beyond it, and notes which.
func (rep *layerReport) tailUs(metric string, sorted []int64) float64 {
	v, level := cappedPercentile(sorted, 99)
	rep.notes = append(rep.notes, fmt.Sprintf("%s is the p%v of %d spans", metric, level, len(sorted)))
	return float64(v) / 1e3
}

// layerValues computes every per-layer metric of one traced invocation:
// counter ratios over all its epochs, span statistics over the traced
// ones, runtime counters over the untraced ones, and the stand-alone
// layer measurements that apply to the workload.
func layerValues(p plan, results []epochResult) (layerReport, error) {
	var rep layerReport
	v := values{}
	rep.v = v
	for _, m := range perLayer {
		v[m.name] = 0
	}

	var (
		sum                counters
		ops, mallocs       float64
		gcCPU, cpu         float64
		tracedX, untracedX []float64
		spans              []span
	)
	for _, r := range results {
		ops += float64(r.ops)
		sum = addCounters(sum, r.delta)
		if r.traced {
			tracedX = append(tracedX, r.opsPerS())
			for _, s := range r.spans {
				spans = append(spans, s...)
			}
		} else {
			untracedX = append(untracedX, r.opsPerS())
			mallocs += float64(r.mallocs)
			gcCPU += r.gcCPUS
			cpu += r.cpuS
		}
	}
	untracedOps := ops * float64(len(untracedX)) / float64(len(results))
	v["process.cpu_us_per_op"] = ratio(cpu*1e6, untracedOps)
	v["runtime.allocs_per_op"] = ratio(mallocs, untracedOps)
	v["runtime.gc_cpu_share"] = ratio(gcCPU, cpu)
	v["trace.overhead_share"] = 1 - ratio(median(tracedX), median(untracedX))

	inProcess := p.w.name == "bench7-rw" || p.w.name == "kv-hot-transfer"
	if inProcess {
		e := sum.eng
		v["swisstm.aborts_per_op"] = ratio(float64(e.Aborts), ops)
		v["swisstm.validation_reads_per_op"] = ratio(float64(e.ValidationReads), ops)
		v["swisstm.reads_logged_per_op"] = ratio(float64(e.ReadsLogged), ops)
		v["swisstm.dedup_share"] = ratio(float64(e.ReadsDeduped), float64(e.ReadsLogged+e.ReadsDeduped))
		v["swisstm.ro_commit_share"] = ratio(float64(e.ROCommits), float64(e.Commits))
		v["swisstm.cm_waits_per_op"] = ratio(float64(e.WaitsCM), ops)
		v["mem.arena_words_per_op"] = ratio(float64(sum.arenaUsed), ops)
		ns, err := emptyTxnNs(p.kind, p.sizes)
		if err != nil {
			return rep, err
		}
		v["swisstm.empty_txn_ns"] = ns
	}

	switch p.w.name {
	case "bench7-rw":
		d := durations(spans, spanBench7Op)
		v["bench7.op_p50_us"] = float64(percentile(d, 50)) / 1e3
		v["bench7.op_p99_us"] = rep.tailUs("bench7.op_p99_us", d)
		others, notes := otherEngines(p, "bench7_ops_per_s")
		maps.Copy(v, others)
		rep.notes = append(rep.notes, notes...)
		return rep, nil
	case "kv-hot-transfer":
		others, notes := otherEngines(p, "kv_transfer_ops_per_s")
		maps.Copy(v, others)
		rep.notes = append(rep.notes, notes...)
		ns, err := prefillNsPerKey(p.kind, transferArena, transferPop, p.sizes)
		if err != nil {
			return rep, err
		}
		v["txkv.prefill_ns_per_key"] = ns
		return rep, nil
	}

	// The two service workloads.
	coalesced := p.w.name == "svc-update-coalesced"
	s := sum.srv
	reqs := float64(s.Requests)
	v["swisstm.aborts_per_op"] = ratio(float64(s.Aborts), ops)
	v["txkvserver.parse_ns"] = ratio(float64(s.ParseNs), reqs)
	v["txkvserver.queue_ns"] = ratio(float64(s.QueueNs), reqs)
	v["txkvserver.txn_ns"] = ratio(float64(s.TxnNs), reqs)
	v["txkvserver.commit_ns"] = ratio(float64(s.CommitNs), reqs)
	v["txkvserver.wal_ns"] = ratio(float64(s.WalNs), reqs)
	v["txkvserver.reply_ns"] = ratio(float64(s.ReplyNs), reqs)
	v["txkvserver.commits_per_op"] = ratio(float64(s.Commits), ops)
	v["coalesce.items_per_batch"] = ratio(float64(s.CoalesceItems), float64(s.CoalesceBatches))
	v["coalesce.batches_per_op"] = ratio(float64(s.CoalesceBatches), ops)
	v["coalesce.feed_events_per_op"] = ratio(float64(s.FeedEvents), ops)
	v["wal.frames_per_op"] = ratio(float64(s.WalFrames), ops)
	v["wal.bytes_per_op"] = ratio(float64(s.WalBytes), ops)

	trip := spanClientDo
	if coalesced {
		trip = spanPipeTrip
	}
	lat := durations(spans, trip)
	p50 := float64(percentile(lat, 50)) / 1e3
	v["txkvclient.lat_p50_us"] = p50
	v["txkvclient.lat_p99_us"] = rep.tailUs("txkvclient.lat_p99_us", lat)

	ring := serviceInputs(buildCtx{seed: p.seed, callers: 1, perCal: p.sizes.ringOps}).ops[0]
	var err error
	if v["txkv.op_ns"], err = txkvOpNs(p.kind, ring, p.sizes); err != nil {
		return rep, err
	}
	if v["txkv.prefill_ns_per_key"], err = prefillNsPerKey(p.kind, svcArena, svcKeys, p.sizes); err != nil {
		return rep, err
	}
	codecClient, codecServer, err := codecNs(ring, p.sizes)
	if err != nil {
		return rep, err
	}
	v["txkvwire.codec_ns_per_op"] = codecClient + codecServer
	putReq, _ := opFrames(kvOp{kind: kindPut, key: 1})
	payload, err := wireAppendReq(nil, putReq)
	if err != nil {
		return rep, err
	}
	raw, err := nullRTT(payload, p.sizes)
	if err != nil {
		return rep, fmt.Errorf("null server: %w", err)
	}
	null50 := float64(percentile(raw, 50)) / 1e3
	v["net.null_rtt_p50_us"] = null50
	over, err := clientOverNull(coalesced, p.sizes)
	if err != nil {
		return rep, fmt.Errorf("client over null server: %w", err)
	}
	residual := float64(percentile(over, 50))/1e3 - null50
	v["txkvclient.residual_us"] = residual
	if v["wal.append_ns_per_rec"], err = walAppendNs(p.tmp, p.sizes); err != nil {
		return rep, err
	}
	if coalesced {
		e2d, err := coalesceEnqueueToDone(p.kind, ring, p.sizes)
		if err != nil {
			return rep, err
		}
		v["coalesce.enqueue_to_done_p50_us"] = float64(percentile(e2d, 50)) / 1e3
	}

	// The budget: measured rows, then what they leave of the client's p50.
	rows := []budgetRow{
		{"net.null_rtt (p50, raw frames through the null server)", null50},
		{"txkvwire (client half: AppendReq + DecodeReply)", codecClient / 1e3},
		{"txkvserver.parse (incl. DecodeReq)", v["txkvserver.parse_ns"] / 1e3},
		{"txkvserver.queue", v["txkvserver.queue_ns"] / 1e3},
		{"txkvserver.txn", v["txkvserver.txn_ns"] / 1e3},
		{"txkvserver.commit", v["txkvserver.commit_ns"] / 1e3},
		{"wal (txkvserver.wal phase)", v["txkvserver.wal_ns"] / 1e3},
		{"txkvserver.reply (incl. AppendReply, write, flush)", v["txkvserver.reply_ns"] / 1e3},
		{"txkvclient.residual (client over null server, less codec)", residual - codecClient/1e3},
	}
	explained := 0.0
	for _, r := range rows {
		explained += r.us
	}
	rows = append(rows, budgetRow{"unexplained (scheduler, goroutine hand-offs, pipeline wait)", p50 - explained})
	rep.budget = &budget{p50: p50, samples: len(lat), rows: rows}
	return rep, nil
}

// printBudget writes the latency budget; its rows sum to the client p50.
func printBudget(w io.Writer, workload string, b *budget) {
	fmt.Fprintf(w, "\nlatency budget of %s: rows sum to txkvclient.lat_p50_us = %.2f us (%d request spans)\n", workload, b.p50, b.samples)
	total := 0.0
	for _, r := range b.rows {
		total += r.us
		fmt.Fprintf(w, "  %-64s %9.2f us %6.1f %%\n", r.name, r.us, 100*ratio(r.us, b.p50))
	}
	fmt.Fprintf(w, "  %-64s %9.2f us\n", "sum", total)
}

// printValues writes metrics in registry order, one per line.
func printValues(w io.Writer, defs []metricDef, v values, disp map[string]summary) {
	for _, m := range defs {
		line := fmt.Sprintf("  %-36s %16.4f %-6s", m.name, v[m.name], m.unit)
		if s, ok := disp[m.name]; ok {
			line += fmt.Sprintf("  n=%d min %.4f q1 %.4f q3 %.4f max %.4f spread %.2f %%",
				s.N, s.Min, s.Q1, s.Q3, s.Max, 100*s.spread())
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// resultLine is the contract's last line of standard output.
func resultLine(defs []metricDef, v values, attempted, failed int) string {
	var b strings.Builder
	// Reaching this line means every epoch's oracle passed.
	fmt.Fprintf(&b, `{"correct": true, "attempted": %d, "failed": %d, "metrics": {`, attempted, failed)
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, m := range defs {
		names = append(names, m.name)
		units[m.name] = m.unit
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, n, formatFloat(v[n]), units[n])
	}
	b.WriteString("}}")
	return b.String()
}
