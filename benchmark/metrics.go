package main

// The metric registry: every name the benchmark prints, with its unit and
// direction. BENCHMARK.json at the root of the repository lists the same
// names (a test holds the two together).

type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the share by which it may worsen
}

// endToEnd are the gated metrics; each is the median over the epochs of
// one run, on every workload. Latency percentiles are deliberately not
// here: in a closed loop the mean latency is callers ÷ ops_per_s, and the
// measured run-to-run spread of p50/p99 is wider than any bound worth
// gating on; they are per-layer metrics. So is CPU time per operation:
// this host's neighbours inflate it by up to 40 % for minutes at a time
// (README.md, Noise), more than they move throughput. The bounds are the
// widest the driver's contract allows, because ten runs of one build
// spread 4–19 % here: a blocker README.md reports, not a target.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.10},
}

// perLayer are the traced run's metrics. A metric that does not apply to
// a workload (the coalescer on the pooled path, the wire in process)
// reads 0 there.
var perLayer = []metricDef{
	// Engine (SwissTM), from stm.Thread.Stats of the caller threads; on
	// the service workloads only aborts are visible, through wire Stats.
	{name: "swisstm.aborts_per_op", unit: "count", better: "lower"},
	{name: "swisstm.validation_reads_per_op", unit: "count", better: "lower"},
	{name: "swisstm.reads_logged_per_op", unit: "count", better: "lower"},
	{name: "swisstm.dedup_share", unit: "ratio", better: "higher"},
	{name: "swisstm.ro_commit_share", unit: "ratio", better: "higher"},
	{name: "swisstm.cm_waits_per_op", unit: "count", better: "lower"},
	{name: "swisstm.empty_txn_ns", unit: "ns", better: "lower"},
	// The other three engine modules on the two in-process workloads.
	{name: "tl2.bench7_ops_per_s", unit: "1/s", better: "higher"},
	{name: "tinystm.bench7_ops_per_s", unit: "1/s", better: "higher"},
	{name: "rstm.bench7_ops_per_s", unit: "1/s", better: "higher"},
	{name: "tl2.kv_transfer_ops_per_s", unit: "1/s", better: "higher"},
	{name: "tinystm.kv_transfer_ops_per_s", unit: "1/s", better: "higher"},
	{name: "rstm.kv_transfer_ops_per_s", unit: "1/s", better: "higher"},
	// bench7 and the arena.
	{name: "bench7.op_p50_us", unit: "us", better: "lower"},
	{name: "bench7.op_p99_us", unit: "us", better: "lower"},
	{name: "mem.arena_words_per_op", unit: "count", better: "lower"},
	// txkv store.
	{name: "txkv.op_ns", unit: "ns", better: "lower"},
	{name: "txkv.prefill_ns_per_key", unit: "ns", better: "lower"},
	// Wire and transport.
	{name: "txkvwire.codec_ns_per_op", unit: "ns", better: "lower"},
	{name: "net.null_rtt_p50_us", unit: "us", better: "lower"},
	// Server phases: wire Stats phase sums ÷ requests.
	{name: "txkvserver.parse_ns", unit: "ns", better: "lower"},
	{name: "txkvserver.queue_ns", unit: "ns", better: "lower"},
	{name: "txkvserver.txn_ns", unit: "ns", better: "lower"},
	{name: "txkvserver.commit_ns", unit: "ns", better: "lower"},
	{name: "txkvserver.wal_ns", unit: "ns", better: "lower"},
	{name: "txkvserver.reply_ns", unit: "ns", better: "lower"},
	{name: "txkvserver.commits_per_op", unit: "count", better: "lower"},
	// Coalescer and feed.
	{name: "coalesce.items_per_batch", unit: "count", better: "higher"},
	{name: "coalesce.batches_per_op", unit: "count", better: "lower"},
	{name: "coalesce.enqueue_to_done_p50_us", unit: "us", better: "lower"},
	{name: "coalesce.feed_events_per_op", unit: "count", better: "lower"},
	// Commit log.
	{name: "wal.append_ns_per_rec", unit: "ns", better: "lower"},
	{name: "wal.frames_per_op", unit: "count", better: "lower"},
	{name: "wal.bytes_per_op", unit: "count", better: "lower"},
	// Client.
	{name: "txkvclient.lat_p50_us", unit: "us", better: "lower"},
	{name: "txkvclient.lat_p99_us", unit: "us", better: "lower"},
	{name: "txkvclient.residual_us", unit: "us", better: "lower"},
	// The process and the Go runtime.
	{name: "process.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	// The tracer itself.
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// values maps metric name to measured value.
type values map[string]float64
