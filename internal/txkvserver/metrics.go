package txkvserver

import (
	"swisstm/internal/obs"
	"swisstm/internal/txkvwire"
)

// phase indices into opMetrics.phase. The request pipeline is measured
// in six disjoint phases (DESIGN.md §10, §12): frame decode, wait for
// an engine thread, transaction body (final attempt), begin/commit/
// retry remainder, commit-log append (zero with the WAL off), and
// reply encode+write+flush.
const (
	phaseParse = iota
	phaseQueue
	phaseTxn
	phaseCommit
	phaseWal
	phaseReply
	phaseCount
)

var phaseNames = [phaseCount]string{"parse", "queue", "txn", "commit", "wal", "reply"}

// opCount sizes the per-op metric tables: wire opcodes are contiguous
// from OpInvalid (decode failures land there).
const opCount = int(txkvwire.OpSubscribe) + 1

// opMetrics is one op type's pre-resolved metric handles. Handles are
// looked up once at server start so the request path does no
// name/label matching — recording is a handful of atomic adds.
type opMetrics struct {
	requests *obs.Counter
	total    *obs.AtomicHist
	phase    [phaseCount]*obs.AtomicHist
}

// metrics is the server's observability surface: per-op-type request
// counters and latency histograms (total and per phase) plus per-shard
// conflict counters, all owned by one obs.Registry so the admin
// /metrics endpoint can render everything the request path records.
//
// Everything here is cumulative for the server's lifetime and recorded
// lock-free; a load run diffs two snapshots. Snapshots are
// diff-tolerant rather than globally consistent (see snapshot).
type metrics struct {
	reg *obs.Registry
	ops [opCount]opMetrics
	// shardConflicts[i] counts engine aborts attributed to requests
	// whose (first) key hashes to shard i; the extra last entry counts
	// aborts of multi-shard requests (sum/len/batch and key-less ops),
	// labeled shard="multi".
	shardConflicts []*obs.Counter

	// Admission-control outcomes (DESIGN.md §13). A shed is a request
	// turned away before it borrowed an engine thread; the reason label
	// says which bound fired. Deadline expiries and connection-cap
	// rejections are counted separately — they are not capacity sheds.
	shedQueueFull    *obs.Counter // txkv_sheds_total{reason="queue_full"}
	shedQueueWait    *obs.Counter // txkv_sheds_total{reason="queue_wait"}
	shedDraining     *obs.Counter // txkv_sheds_total{reason="draining"}
	deadlineExceeded *obs.Counter // txkv_deadline_exceeded_total
	connsRejected    *obs.Counter // txkv_conns_rejected_total
}

func newMetrics(shards int) *metrics {
	m := &metrics{reg: obs.NewRegistry()}
	for op := 0; op < opCount; op++ {
		name := txkvwire.Op(op).String()
		m.ops[op].requests = m.reg.Counter("txkv_requests_total", obs.Label{Key: "op", Value: name})
		m.ops[op].total = m.reg.Histogram("txkv_request_ns", obs.Label{Key: "op", Value: name})
		for p := 0; p < phaseCount; p++ {
			m.ops[op].phase[p] = m.reg.Histogram("txkv_phase_ns",
				obs.Label{Key: "op", Value: name}, obs.Label{Key: "phase", Value: phaseNames[p]})
		}
	}
	m.shardConflicts = make([]*obs.Counter, shards+1)
	for i := 0; i < shards; i++ {
		m.shardConflicts[i] = m.reg.Counter("txkv_shard_conflicts_total",
			obs.Label{Key: "shard", Value: shardName(i)})
	}
	m.shardConflicts[shards] = m.reg.Counter("txkv_shard_conflicts_total",
		obs.Label{Key: "shard", Value: "multi"})
	m.shedQueueFull = m.reg.Counter("txkv_sheds_total", obs.Label{Key: "reason", Value: "queue_full"})
	m.shedQueueWait = m.reg.Counter("txkv_sheds_total", obs.Label{Key: "reason", Value: "queue_wait"})
	m.shedDraining = m.reg.Counter("txkv_sheds_total", obs.Label{Key: "reason", Value: "draining"})
	m.deadlineExceeded = m.reg.Counter("txkv_deadline_exceeded_total")
	m.connsRejected = m.reg.Counter("txkv_conns_rejected_total")
	return m
}

// recordShed counts one admission rejection by its wire code: sheds
// (Overloaded split by which bound fired, Draining) and deadline
// expiries feed separate counters because a deadline miss is the
// client's budget running out, not the server refusing capacity.
func (m *metrics) recordShed(code txkvwire.Code, queueFull bool) {
	switch {
	case code == txkvwire.CodeDraining:
		m.shedDraining.Inc()
	case code == txkvwire.CodeDeadlineExceeded:
		m.deadlineExceeded.Inc()
	case queueFull:
		m.shedQueueFull.Inc()
	default:
		m.shedQueueWait.Inc()
	}
}

// shardName formats a shard index without fmt (called only at init,
// but keeps the package's metric setup dependency-light).
func shardName(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// record logs one fully served request of type op with its six phase
// durations (ns): counted, then observed.
func (m *metrics) record(op txkvwire.Op, phases [phaseCount]uint64) {
	m.ops[int(op)].requests.Inc()
	m.observe(op, phases)
}

// observe is record less the count, for a pass of coalesced replies,
// which counts a request before its reply is written and knows its reply
// phase only after. The total histogram records the phase sum, so per-op
// totals and phase splits agree by construction.
func (m *metrics) observe(op txkvwire.Op, phases [phaseCount]uint64) {
	om := &m.ops[int(op)]
	var total uint64
	for p, v := range phases {
		om.phase[p].Record(v)
		total += v
	}
	om.total.Record(total)
}

// recordConflicts attributes n engine aborts to shard (−1 = the
// multi-shard bucket). Called only when n > 0, so conflict-free
// requests touch no extra cache line.
func (m *metrics) recordConflicts(shard int, n uint64) {
	if shard < 0 || shard >= len(m.shardConflicts)-1 {
		shard = len(m.shardConflicts) - 1
	}
	m.shardConflicts[shard].Add(n)
}

// snapshot folds the per-op histograms into the flat wire Stats shape
// (phase sums + request count) and fills the server-lifetime latency
// percentiles from the merged total histogram. The engine counters are
// filled in by the caller.
//
// Consistency: each histogram/counter is read with individual atomic
// loads while recording continues, so a snapshot may observe some of a
// request's phase sums without its Requests increment (or vice versa)
// — skew is bounded by the requests in flight at snapshot time. Every
// field is monotone non-decreasing, so diffing two snapshots is
// per-field exact and per-request means converge over any window that
// dwarfs the in-flight count; the concurrent-snapshot test pins the
// monotonicity half of this contract. (The previous flat-counter
// implementation had the same torn window but left it undocumented.)
func (m *metrics) snapshot() txkvwire.Stats {
	var st txkvwire.Stats
	var total obs.Hist
	for op := 0; op < opCount; op++ {
		om := &m.ops[op]
		st.Requests += om.requests.Load()
		ph := [phaseCount]obs.Hist{}
		for p := 0; p < phaseCount; p++ {
			ph[p] = om.phase[p].Snapshot()
		}
		st.ParseNs += ph[phaseParse].Sum
		st.QueueNs += ph[phaseQueue].Sum
		st.TxnNs += ph[phaseTxn].Sum
		st.CommitNs += ph[phaseCommit].Sum
		st.WalNs += ph[phaseWal].Sum
		st.ReplyNs += ph[phaseReply].Sum
		t := om.total.Snapshot()
		total.Add(&t)
	}
	st.SrvP50Ns = total.Quantile(0.50)
	st.SrvP99Ns = total.Quantile(0.99)
	st.SrvP999Ns = total.Quantile(0.999)
	st.Sheds = m.shedQueueFull.Load() + m.shedQueueWait.Load() + m.shedDraining.Load()
	st.DeadlineExceeded = m.deadlineExceeded.Load()
	st.ConnsRejected = m.connsRejected.Load()
	return st
}
