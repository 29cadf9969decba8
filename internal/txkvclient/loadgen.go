package txkvclient

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvwire"
	"swisstm/internal/util"
)

// LoadConfig parameterizes one load run against a txkv server: one
// workload mix, one connection count, one loop mode.
type LoadConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Mix is the YCSB-style operation mix (internal/txkv's named mixes).
	Mix txkv.Mix
	// Conns is the number of concurrent client connections (default 1).
	Conns int
	// Keys is the key population the server was pre-filled with
	// (default 1024); keys are drawn from 1..Keys.
	Keys int
	// Zipf is the zipfian skew θ in (0,1); 0 selects uniform keys.
	Zipf float64
	// Seed derives the per-connection RNG seeds; every value, 0
	// included, is a seed, so a run replays its key and op streams.
	Seed uint64
	// Ops is the total operation count across all connections (required).
	Ops uint64
	// Rate switches to open-loop mode: operations arrive at this fixed
	// rate (ops/sec) regardless of completions, and latency is measured
	// from the scheduled arrival — queueing delay included — so
	// saturation shows up as growing latency and late requests instead
	// of being absorbed by closed-loop backpressure. 0 = closed loop.
	Rate float64
	// LateThreshold classifies an operation as late when its dispatch
	// lagged its scheduled arrival by more than this (default 1ms;
	// open-loop mode only).
	LateThreshold time.Duration
	// Timeout is the per-request deadline on every load connection
	// (0 = none).
	Timeout time.Duration
	// Retries is the per-request retry budget — typed retryable shed
	// replies and transport failures (bounded exponential backoff +
	// reconnect; 0 = fail fast).
	Retries int
	// RetryMutations opts mutations into transport-failure retry
	// (at-least-once); see Options.RetryMutations.
	RetryMutations bool
	// Budget is the per-request deadline budget propagated to the
	// server as the wire TTL (0 = none); see Options.Budget.
	Budget time.Duration
	// Pipeline, when > 1, switches every connection to pipelined mode:
	// that many logical operations in flight per connection, replies
	// collected in order. Shed replies are counted (Result.ErrOps), not
	// retried, and a Pipe arms no deadline: combining Pipeline with
	// Timeout, Retries or RetryMutations is ErrPipelineOptions.
	Pipeline int
}

// ErrPipelineOptions rejects a LoadConfig that asks a pipelined run for
// what only the synchronous Client does.
var ErrPipelineOptions = errors.New("txkvclient: timeout, retries and retry-mutations need synchronous connections (pipeline <= 1): a pipelined run counts sheds and retries nothing")

func (c *LoadConfig) fill() error {
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.LateThreshold == 0 {
		c.LateThreshold = time.Millisecond
	}
	if err := c.Mix.Valid(); err != nil {
		return err
	}
	if c.Ops == 0 {
		return fmt.Errorf("txkvclient: load run needs a total op count")
	}
	if c.Conns < 1 || c.Keys < 1 {
		return fmt.Errorf("txkvclient: bad load config (conns %d, keys %d)", c.Conns, c.Keys)
	}
	if c.Rate < 0 {
		return fmt.Errorf("txkvclient: negative arrival rate %v", c.Rate)
	}
	if c.Pipeline < 0 {
		return fmt.Errorf("txkvclient: negative pipeline window %d", c.Pipeline)
	}
	if c.Pipeline > 1 && (c.Timeout > 0 || c.Retries > 0 || c.RetryMutations) {
		return ErrPipelineOptions
	}
	if c.Mix.TransferPct > 0 && c.Keys <= c.Mix.TransferKeys {
		return fmt.Errorf("txkvclient: mix %s needs more than %d keys, have %d", c.Mix.Name, c.Mix.TransferKeys, c.Keys)
	}
	return nil
}

// Result is one load run's measurement: client-observed latency
// percentiles, open-loop arrival accounting, and the server's phase
// timing/engine counters over the run window.
type Result struct {
	Mode     string // "closed" or "open"
	Ops      uint64 // completed operations
	LateOps  uint64 // open loop: dispatched later than LateThreshold after schedule
	Duration time.Duration

	// Latency percentiles in nanoseconds. Closed loop measures from
	// request send; open loop from scheduled arrival.
	P50Ns, P99Ns, P999Ns float64

	// Offered is the configured arrival rate (0 in closed loop);
	// Achieved is completed ops over the run duration. A gap between
	// them is saturation.
	Offered, Achieved float64

	// Server is the server-side counter delta over the run: phase
	// nanosecond sums, engine commit/abort totals and the raw
	// abort-cause taxonomy. The SrvP*Ns percentile fields are the
	// exception — they are NOT diffed (percentiles of a cumulative
	// histogram don't subtract); they carry the final snapshot's
	// server-lifetime values, which equal the run's own distribution
	// when the server was started for this run (the -launch drivers).
	Server txkvwire.Stats

	// Retries/Reconnects are the client-resilience counters summed
	// across the run's connections: request attempts re-issued after a
	// transport failure, and successful re-dials.
	Retries, Reconnects uint64

	// ErrOps counts operations that completed with a shed reply
	// (Overloaded/Draining/DeadlineExceeded) in pipelined mode, where
	// sheds are counted rather than retried. Always 0 in synchronous
	// mode (there a shed either retries or fails the run).
	ErrOps uint64

	// OracleErr is the armed correctness oracles' verdict (nil = green):
	// key population intact, and — for conserving mixes — the total
	// balance unchanged by the run.
	OracleErr error
}

// phaseMean is the server's mean per-request time of one phase over the
// run window: the phase's nanosecond sum over the requests served.
func phaseMean(sum, requests uint64) float64 {
	if requests == 0 {
		return 0
	}
	return float64(sum) / float64(requests)
}

// Record folds the result into the repository's record schema
// (DESIGN.md §5, §10) under the given identity columns.
func (r Result) Record(experiment, workload, engine, engineKind string, conns, repeat int, seed uint64) results.Record {
	rec := results.Record{
		Experiment: experiment, Workload: workload,
		Engine: engine, EngineKind: engineKind,
		Threads: conns, Repeat: repeat, Seed: seed,
		DurationSec: r.Duration.Seconds(),
		Ops:         r.Ops,
		Throughput:  r.Achieved,

		LatP50Ns:  r.P50Ns,
		LatP99Ns:  r.P99Ns,
		LatP999Ns: r.P999Ns,
		SrvP50Ns:  r.Server.SrvP50Ns,
		SrvP99Ns:  r.Server.SrvP99Ns,
		SrvP999Ns: r.Server.SrvP999Ns,

		PhaseParseNs:  phaseMean(r.Server.ParseNs, r.Server.Requests),
		PhaseQueueNs:  phaseMean(r.Server.QueueNs, r.Server.Requests),
		PhaseTxnNs:    phaseMean(r.Server.TxnNs, r.Server.Requests),
		PhaseCommitNs: phaseMean(r.Server.CommitNs, r.Server.Requests),
		PhaseReplyNs:  phaseMean(r.Server.ReplyNs, r.Server.Requests),
		OfferedRate:   r.Offered,
		AchievedRate:  r.Achieved,
		LateOps:       r.LateOps,
		CheckedOK:     r.OracleErr == nil,

		PhaseWalNs:         phaseMean(r.Server.WalNs, r.Server.Requests),
		WalFrames:          r.Server.WalFrames,
		WalBytes:           r.Server.WalBytes,
		WalRecoveredFrames: r.Server.WalRecovered,
		Retries:            r.Retries,
		Reconnects:         r.Reconnects,
		Sheds:              r.Server.Sheds,
		DeadlineExceeded:   r.Server.DeadlineExceeded,

		CoalesceBatches: r.Server.CoalesceBatches,
		CoalesceItems:   r.Server.CoalesceItems,
		FeedEvents:      r.Server.FeedEvents,
		WalFsyncs:       r.Server.WalFsyncs,
		Cores:           runtime.GOMAXPROCS(0),
	}
	rec.SetStats(stm.Stats{Commits: r.Server.Commits, Aborts: r.Server.Aborts, AbortCauses: r.Server.AbortCauses})
	return rec
}

// Run executes one load run. A transport or protocol error aborts the
// run; a failed oracle is reported in Result.OracleErr (the measurement
// itself is still returned, so drivers can persist the evidence).
func Run(cfg LoadConfig) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	res := Result{Mode: "closed", Offered: 0}
	if cfg.Rate > 0 {
		res.Mode = "open"
		res.Offered = cfg.Rate
	}

	// A control connection brackets the run: oracle baselines and the
	// server counter snapshots.
	ctl, err := DialRetry(cfg.Addr, 5*time.Second)
	if err != nil {
		return Result{}, err
	}
	defer ctl.Close()
	var sum0 uint64
	conserving := cfg.Mix.UpdatePct == 0 && cfg.Mix.CASPct == 0
	if conserving {
		if sum0, err = ctl.Sum(-1); err != nil {
			return Result{}, err
		}
	}
	stats0, err := ctl.Stats()
	if err != nil {
		return Result{}, err
	}

	all, err := runWorkers(cfg, &res)
	if err != nil {
		return Result{}, err
	}
	res.Ops = uint64(len(all))
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50Ns = percentile(all, 0.50)
	res.P99Ns = percentile(all, 0.99)
	res.P999Ns = percentile(all, 0.999)
	if res.Duration > 0 {
		res.Achieved = float64(res.Ops) / res.Duration.Seconds()
	}

	stats1, err := ctl.Stats()
	if err != nil {
		return Result{}, err
	}
	res.Server = stats1.Sub(stats0)

	res.OracleErr = checkOracles(ctl, cfg, conserving, sum0)
	return res, nil
}

// Arrivals is the open-loop arrival process: n tokens, each the scheduled
// arrival of one operation at the fixed rate from start on (catching up
// without re-pacing when it oversleeps, so the schedule is faithful),
// then the channel closes. The channel holds every token, so saturated
// consumers never block the arrival process — they just grow the queue,
// which is exactly the latency the scheduled-arrival measurement charges.
func Arrivals(start time.Time, rate float64, n uint64) <-chan time.Time {
	tokens := make(chan time.Time, n)
	interval := float64(time.Second) / rate
	go func() {
		for i := uint64(0); i < n; i++ {
			sched := start.Add(time.Duration(float64(i) * interval))
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
			tokens <- sched
		}
		close(tokens)
	}()
	return tokens
}

// runWorkers drives the load itself, in either mode: every connection is
// dialled and every worker built before the clock and the arrival
// schedule start, so neither Duration nor the first arrivals pay for
// set-up. It fills res.Duration and the per-worker counters and returns
// the merged latencies; the first worker error wins.
func runWorkers(cfg LoadConfig, res *Result) ([]int64, error) {
	var dist util.Dist = util.NewUniform(cfg.Keys)
	if cfg.Zipf > 0 {
		dist = util.NewZipf(cfg.Keys, cfg.Zipf)
	}
	workers := make([]*worker, 0, cfg.Conns)
	defer func() {
		for _, w := range workers {
			w.close()
		}
	}()
	for i := 0; i < cfg.Conns; i++ {
		w, err := newWorker(cfg, i, dist)
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}

	start := time.Now()
	var tokens <-chan time.Time // nil in closed loop
	if cfg.Rate > 0 {
		tokens = Arrivals(start, cfg.Rate, cfg.Ops)
	}
	var (
		wg     sync.WaitGroup
		failed sync.Once
		runErr error // the first worker error
	)
	run := func(w *worker, loop func() error) {
		defer wg.Done()
		if err := loop(); err != nil {
			failed.Do(func() { runErr = err })
			w.close() // pipelined: wakes the worker's other goroutine
		}
	}
	for i, w := range workers {
		// Closed loop: each connection issues its share back to back.
		quota := cfg.Ops / uint64(cfg.Conns)
		if uint64(i) < cfg.Ops%uint64(cfg.Conns) {
			quota++
		}
		if w.p == nil {
			wg.Add(1)
			go run(w, func() error { return w.issueAll(tokens, quota) })
		} else {
			wg.Add(2)
			go run(w, func() error { return w.submitAll(tokens, quota) })
			go run(w, w.collect)
		}
	}
	wg.Wait()
	res.Duration = time.Since(start)
	if runErr != nil {
		return nil, runErr
	}

	var all []int64
	for _, w := range workers {
		all = append(all, w.lat...)
		res.LateOps += w.late
		res.ErrOps += w.errOps
		if w.cl != nil {
			res.Retries += w.cl.Retries
			res.Reconnects += w.cl.Reconnects
		}
	}
	return all, nil
}

// checkOracles validates post-run state over the wire: the key
// population must be intact (no mix deletes), and a mix without blind
// updates conserves the total balance (transfers move value, never
// create it).
func checkOracles(ctl *Client, cfg LoadConfig, conserving bool, sum0 uint64) error {
	n, err := ctl.Len()
	if err != nil {
		return err
	}
	if n != uint64(cfg.Keys) {
		return fmt.Errorf("txkvclient: oracle: %d keys after run, want %d", n, cfg.Keys)
	}
	if conserving {
		sum1, err := ctl.Sum(-1)
		if err != nil {
			return err
		}
		if sum1 != sum0 {
			return fmt.Errorf("txkvclient: oracle: balance not conserved: total %d, want %d", sum1, sum0)
		}
	}
	return nil
}

// percentile reads the q-quantile from ascending-sorted latencies using
// the nearest-rank definition.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx])
}

// worker is one load connection: the operation stream it draws, and its
// measurements. It issues through exactly one of cl (synchronous: one
// goroutine, the Client's deadlines and retries apply) and p (pipelined,
// LoadConfig.Pipeline > 1: a submitter goroutine issues the mix and a
// collector goroutine consumes the in-order replies, up to Pipeline
// logical operations in flight).
type worker struct {
	cfg    LoadConfig
	cl     *Client
	p      *Pipe
	rng    *util.Rand
	dist   util.Dist
	shards int
	id     int
	seq    atomic.Uint64 // a pipelined submitter and collector both mint write values
	tkeys  []uint64
	lat    []int64
	late   uint64
	errOps uint64
}

func newWorker(cfg LoadConfig, id int, dist util.Dist) (*worker, error) {
	w := &worker{
		cfg:    cfg,
		rng:    util.NewRand(harness.DeriveSeed(cfg.Seed, "txkvload/"+cfg.Mix.Name, cfg.Conns, id)),
		dist:   dist,
		shards: txkv.ConfigForKeys(cfg.Keys).Shards,
		id:     id,
		tkeys:  make([]uint64, 0, cfg.Mix.TransferKeys),
		lat:    make([]int64, 0, cfg.Ops/uint64(cfg.Conns)+1),
	}
	var err error
	if cfg.Pipeline > 1 {
		w.p, err = DialPipe(cfg.Addr, cfg.Pipeline)
	} else {
		w.cl, err = DialRetryOptions(cfg.Addr, 5*time.Second, Options{
			Timeout:        cfg.Timeout,
			MaxRetries:     cfg.Retries,
			RetryMutations: cfg.RetryMutations,
			Budget:         cfg.Budget,
		})
	}
	return w, err
}

func (w *worker) close() {
	if w.p != nil {
		w.p.Close()
	} else {
		w.cl.Close()
	}
}

func (w *worker) key() uint64 { return uint64(w.dist.Next(w.rng) + 1) }

// nextVal mints this worker's next globally unique write value, the
// same (worker+1)<<40 | seq encoding the in-process generator uses.
func (w *worker) nextVal() uint64 {
	return uint64(w.id+1)<<40 | w.seq.Add(1)
}

// next draws one mix operation — the ladder and the draw order of
// txkv.Gen.Op — and returns its first frame. chain marks the optimistic
// client pattern: the frame is a read, and a conditional swap of what it
// returns follows its reply — two round trips, two server transactions,
// one logical operation.
func (w *worker) next() (req txkvwire.Req, chain bool) {
	switch w.cfg.Mix.Pick(w.rng) {
	case txkv.MixRead:
		req.Op, req.Key = txkvwire.OpGet, w.key()
	case txkv.MixUpdate:
		req.Op, req.Key, req.Val = txkvwire.OpPut, w.key(), w.nextVal()
	case txkv.MixCAS:
		req.Op, req.Key, chain = txkvwire.OpGet, w.key(), true
	case txkv.MixTransfer:
		// Both connection types encode the frame before they return, so
		// the scratch buffer is free again at the next draw.
		w.tkeys = w.cfg.Mix.DistinctKeys(w.tkeys, w.dist, w.rng)
		req.Op, req.Keys, req.Amount = txkvwire.OpTransfer, w.tkeys, 1
	case txkv.MixScan:
		req.Op, req.Shard = txkvwire.OpSum, int32(w.rng.Intn(w.shards))
	}
	return req, chain
}

func (w *worker) cas(key, old uint64) txkvwire.Req {
	return txkvwire.Req{Op: txkvwire.OpCAS, Key: key, Old: old, Val: w.nextVal()}
}

// issueAll is the synchronous issue loop: quota operations back to back
// in closed loop (tokens nil), one per arrival token in open loop, each
// a blocking round trip (two for a chained CAS). Latency runs from the
// send in closed loop, from the scheduled arrival in open loop. An error
// reply fails the run.
func (w *worker) issueAll(tokens <-chan time.Time, quota uint64) error {
	for n := uint64(0); tokens != nil || n < quota; n++ {
		from := time.Now()
		if tokens != nil {
			var ok bool
			if from, ok = <-tokens; !ok {
				break
			}
			if time.Since(from) > w.cfg.LateThreshold {
				w.late++
			}
		}
		req, chain := w.next()
		reply, err := w.cl.do(req)
		if err == nil && chain && reply.Found {
			_, err = w.cl.do(w.cas(req.Key, reply.Val))
		}
		if err != nil {
			return err
		}
		w.lat = append(w.lat, time.Since(from).Nanoseconds())
	}
	return nil
}

// The pipelined issue loop. A chained CAS keeps its window slot across
// both round trips: the collector submits the swap the moment the read's
// reply arrives, so the chain costs latency but never an idle slot.
//
// Error replies with a load-shedding code (Overloaded, Draining,
// DeadlineExceeded) count as errored operations and the run continues —
// open-loop overload is exactly when they appear; retrying inline would
// distort the arrival schedule. Any other error reply fails the run.

// plOp tags one logical operation through the pipe.
type plOp struct {
	from  time.Time // latency origin: scheduled arrival in open loop, first-frame submit in closed
	chain bool      // this reply is the read phase of a chained CAS
	key   uint64    // chained CAS key
}

// plFin is the submitter's final tag: its reply tells the collector how
// many logical operations to expect in total. It rides a real request
// (Len) submitted after everything else, so the collector can never
// block on an empty pipe after seeing it: every still-incomplete
// operation already has a frame in flight (or the collector itself is
// about to chain one).
type plFin struct {
	n uint64
}

// submitAll is the submitter: quota operations back to back in closed
// loop (tokens nil), one per arrival token in open loop, then the final
// tag. Before it waits outside the pipe — for the next arrival, or for
// good — it flushes: nothing else is due to push its frames out. The TTL,
// when configured, rides every first frame (chained CAS frames inherit no
// TTL: the budget bounded the op's admission, and the swap is the tail of
// an op the server already invested in).
func (w *worker) submitAll(tokens <-chan time.Time, quota uint64) error {
	n := uint64(0)
	for ; tokens != nil || n < quota; n++ {
		from := time.Now()
		if tokens != nil {
			var ok bool
			select {
			case from, ok = <-tokens:
			default:
				if err := w.p.Flush(); err != nil {
					return err
				}
				from, ok = <-tokens
			}
			if !ok {
				break
			}
			if time.Since(from) > w.cfg.LateThreshold {
				w.late++
			}
		}
		req, chain := w.next()
		req.TTL = w.cfg.Budget
		if err := w.p.Submit(req, &plOp{from: from, chain: chain, key: req.Key}, true, !chain); err != nil {
			return err
		}
	}
	if err := w.p.Submit(txkvwire.Req{Op: txkvwire.OpLen}, &plFin{n: n}, true, true); err != nil {
		return err
	}
	return w.p.Flush()
}

// collect consumes replies until the submitter's final tag has arrived
// and every logical operation before it completed.
func (w *worker) collect() error {
	var completed, want uint64
	haveWant := false
	for !haveWant || completed < want {
		tag, _, reply, err := w.p.Recv()
		if err != nil {
			return err
		}
		if fin, ok := tag.(*plFin); ok {
			want, haveWant = fin.n, true
			continue
		}
		po := tag.(*plOp)
		if po.chain {
			po.chain = false
			if reply.Err == "" && reply.Found {
				if err := w.p.Submit(w.cas(po.key, reply.Val), po, false, true); err != nil {
					return err
				}
				continue
			}
			w.p.Release() // read missed or was refused: the op ends here
		}
		if reply.Err != "" {
			switch reply.Code {
			case txkvwire.CodeOverloaded, txkvwire.CodeDraining, txkvwire.CodeDeadlineExceeded:
				w.errOps++
			default:
				return fmt.Errorf("txkvclient: pipelined op failed: %s", reply.Err)
			}
		}
		completed++
		w.lat = append(w.lat, time.Since(po.from).Nanoseconds())
	}
	return nil
}
