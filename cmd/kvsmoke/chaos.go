package main

import (
	"flag"
	"fmt"
	"sort"
	"sync"
	"time"

	"swisstm/internal/chaos"
	"swisstm/internal/harness"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/txkvwire"
)

// The fault plan of README §13 is the gate's input.
var (
	chaosSeed = flag.Uint64("seed", 1, "chaos: plan seed (same seed + same conn order = same faults)")
	stormTime = flag.Duration("duration", 2*time.Second, "chaos: storm duration per engine")
	chaosLat  = flag.Duration("chaos-lat", 500*time.Microsecond, "chaos: proxy added latency per chunk")
	pTrunc    = flag.Float64("p-trunc", 0.12, "chaos: per-connection mid-stream truncation probability")
	pRST      = flag.Float64("p-rst", 0.12, "chaos: per-connection hard-reset probability")
	pHole     = flag.Float64("p-hole", 0.06, "chaos: per-connection blackhole probability")
)

// The storm's shape is not: it is what makes overload cheap to reach and
// the verdict meaningful on a 2-vCPU host.
const (
	stormClients  = 16    // concurrent proxied load connections
	stormRate     = 8000  // open-loop arrivals per second, set above capacity
	stormKeys     = 32768 // server key population: scans of it are the convoy-forming heavy op
	stormThreads  = 1     // server engine thread pool, small so that overload is cheap to reach
	stormMaxQueue = 8     // server admission queue cap
	stormMaxWait  = time.Millisecond
	stormJitter   = time.Millisecond       // proxy latency jitter
	stormBudget   = 150 * time.Millisecond // client per-request budget: the wire TTL, also bounds the transport wait
	stormOpTO     = 250 * time.Millisecond // client per-attempt timeout: rescues blackholed connections
	// Bound on the p99 latency of accepted requests. The heaviest accepted
	// op is a batch of 8 full-store scans, so the bound is engine-speed
	// headroom, not a queueing SLO.
	stormP99Limit = 750 * time.Millisecond
)

// stormWorker is one proxied load connection's bookkeeping.
type stormWorker struct {
	id        int
	writer                             // its monotone writes to stormKey(id)
	accepted  []time.Duration          // send→reply of successful attempts
	codes     map[txkvwire.Code]uint64 // error replies by code; CodeNone (untyped) must stay 0
	transport uint64                   // attempts lost to the network (resets, timeouts, torn frames)
}

func stormKey(id int) uint64 { return uint64(100_000 + id) }

// chaosGate is the network-fault/overload gate (DESIGN.md §13): it
// starts a real txkvserver with admission control armed, puts the seeded
// chaos proxy (internal/chaos) in front of it, and drives open-loop load
// through the proxy — added latency, jitter, mid-frame truncation, hard
// resets and blackholes included — while a direct (un-proxied) control
// connection watches the server. It then checks:
//
//  1. Zero acked-write loss: each worker writes monotone values to its
//     own key and records the last acknowledged one; after the storm
//     the server must hold a value in [last acked, last issued] for
//     every key — through every reset and truncation.
//  2. Typed errors only: every error reply that reaches a client
//     carries a valid wire Code (an untyped error is a server bug).
//  3. Overload is real and shed: the server's shed counter must move
//     (otherwise the gate tested nothing), and the p99 latency of
//     ACCEPTED requests must stay under stormP99Limit — bounded
//     time-in-system for admitted work while offered load exceeds
//     capacity. Latency is measured send→reply of the successful
//     attempt, not from the scheduled arrival: the open-loop backlog
//     is unbounded by design, the server's promise is only about what
//     it accepts.
//  4. No crash, no deadlock: the server must stay up through the storm
//     and drain cleanly (bounded time) afterwards.
func chaosGate(kind string) error {
	plan := chaos.Plan{
		Seed: *chaosSeed, Latency: *chaosLat, Jitter: stormJitter,
		TruncateProb: *pTrunc, RSTProb: *pRST, BlackholeProb: *pHole,
		FireAfterMin: 64, FireAfterMax: 4096,
	}
	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine:       harness.EngineSpec{Kind: kind, Manager: "polka"},
		Keys:         stormKeys,
		Threads:      stormThreads,
		MaxConns:     2*stormClients + 8, // headroom for the control conn and redial churn
		MaxQueue:     stormMaxQueue,
		MaxQueueWait: stormMaxWait,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 10 * time.Second,
	})
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	defer srv.Close()

	proxy, err := chaos.New("127.0.0.1:0", srv.Addr().String(), plan)
	if err != nil {
		return fmt.Errorf("start proxy: %w", err)
	}
	defer proxy.Close()
	fmt.Printf("kvsmoke chaos: %s: server=%s proxy=%s plan: %s\n", kind, srv.Addr(), proxy.Addr(), plan)

	// Direct (un-proxied) control connection: counter baselines now,
	// acked-write verification after the storm.
	// Retries on the control path outlast the residual queue: for a
	// short while after the workers stop, batches they abandoned are
	// still occupying the engine, so even direct verification reads can
	// be shed. That is correct server behavior — the reader just tries
	// again.
	ctl, err := txkvclient.DialRetryOptions(srv.Addr().String(), 5*time.Second, txkvclient.Options{
		Timeout: 2 * time.Second, MaxRetries: 100, BackoffBase: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("dial control: %w", err)
	}
	defer ctl.Close()
	stats0, err := ctl.Stats()
	if err != nil {
		return fmt.Errorf("baseline stats: %w", err)
	}

	// The load generator's open-loop arrival process at stormRate for the
	// storm's duration. Workers carry what the proxied path can; what is
	// still queued when the duration ends is abandoned (reported, not an
	// error — offered load exceeding capacity is the point).
	start := time.Now()
	tokens := txkvclient.Arrivals(start, stormRate, uint64(stormRate*stormTime.Seconds()))
	workers := make([]*stormWorker, stormClients)
	var wg sync.WaitGroup
	for g := range workers {
		w := &stormWorker{id: g, codes: map[txkvwire.Code]uint64{}}
		workers[g] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(proxy.Addr().String(), tokens, start.Add(*stormTime))
		}()
	}
	wg.Wait()

	// The server must still be alive.
	select {
	case <-srv.Done():
		return fmt.Errorf("server accept loop died during the storm: %v", srv.Err())
	default:
	}

	// Fold the verdicts; the acked-write oracle reads each worker's key
	// over the direct connection.
	var issued, ackedOps, transport uint64
	var lats []time.Duration
	codes := map[txkvwire.Code]uint64{}
	for _, w := range workers {
		issued += w.issued
		ackedOps += w.acked
		transport += w.transport
		lats = append(lats, w.accepted...)
		for c, n := range w.codes {
			codes[c] += n
		}
		v, found, err := ctl.Get(stormKey(w.id))
		if err != nil {
			return fmt.Errorf("worker %d: verification read: %w", w.id, err)
		}
		if err := w.survived(w.id, v, found); err != nil {
			return err
		}
	}
	if untyped := codes[txkvwire.CodeNone]; untyped > 0 {
		return fmt.Errorf("%d error replies carried no valid code", untyped)
	}
	if ackedOps == 0 {
		return fmt.Errorf("no write was ever acknowledged; the storm tested nothing (raise -duration)")
	}

	stats1, err := ctl.Stats()
	if err != nil {
		return fmt.Errorf("final stats: %w", err)
	}
	storm := stats1.Sub(stats0)
	if storm.Sheds == 0 {
		return fmt.Errorf("server shed nothing — overload never engaged, the gate tested nothing")
	}

	// Bounded time-in-system for accepted work.
	if len(lats) == 0 {
		return fmt.Errorf("no request was ever accepted")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[(len(lats)*99+99)/100-1] // nearest-rank
	if p99 > stormP99Limit {
		return fmt.Errorf("accepted-request p99 %v exceeds %v — admission control is not bounding time-in-system", p99, stormP99Limit)
	}

	// No deadlock: drain must complete in bounded time.
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	case <-time.After(15 * time.Second):
		return fmt.Errorf("server drain hung — deadlock")
	}

	ps := proxy.Stats()
	fmt.Printf("kvsmoke chaos: %s: issued=%d acked=%d accepted=%d p99=%v sheds=%d deadline=%d connrej=%d transport=%d codes=%v faults{trunc=%d rst=%d hole=%d}/%d conns\n",
		kind, issued, ackedOps, len(lats), p99.Round(time.Microsecond),
		storm.Sheds, storm.DeadlineExceeded, storm.ConnsRejected, transport, codes,
		ps.Truncates, ps.RSTs, ps.Blackholes, ps.Conns)
	return nil
}

// run carries arrival tokens through one proxied connection until the
// storm's end: 60% monotone Puts to its own key, 20% Gets of a
// neighbor key, 20% full-store scans. The scans hold an engine thread
// for whole milliseconds, so arrivals behind them pile into the
// admission queue — that convoy is what makes the shed counters move
// with a deliberately small thread pool. The backlog still queued at end
// is abandoned, not drained: the storm lasts as long as it says. Fail-fast
// client (no built-in retry) so every attempt is observed and timed
// individually; transport failures re-dial through the proxy and move on
// — a mutation is never blindly re-issued, the [acked, issued] range
// check absorbs the uncertainty.
func (w *stormWorker) run(proxyAddr string, tokens <-chan time.Time, end time.Time) {
	opts := txkvclient.Options{Timeout: stormOpTO}
	cl, err := txkvclient.DialOptions(proxyAddr, opts)
	if err != nil {
		return
	}
	defer func() { cl.Close() }()

	for n := uint64(0); ; n++ {
		if _, ok := <-tokens; !ok || !time.Now().Before(end) {
			return
		}
		var req txkvwire.Req
		mutation := false
		switch {
		case n%10 < 6:
			mutation = true
			w.issued++
			req = txkvwire.Req{Op: txkvwire.OpPut, Key: stormKey(w.id), Val: w.issued, TTL: stormBudget}
		case n%10 < 8:
			req = txkvwire.Req{Op: txkvwire.OpGet, Key: stormKey(int(n) % stormClients), TTL: stormBudget}
		default:
			// A batch of full-store scans occupies an engine thread for
			// several milliseconds on every engine — long enough that
			// requests queued behind it overrun the queue-wait bound.
			scan := txkvwire.Req{Op: txkvwire.OpSum, Shard: -1}
			req = txkvwire.Req{Op: txkvwire.OpBatch, TTL: stormBudget,
				Sub: []txkvwire.Req{scan, scan, scan, scan, scan, scan, scan, scan}}
		}
		t0 := time.Now()
		reply, err := cl.Do(req)
		if err != nil {
			w.transport++
			cl.Close()
			if cl, err = txkvclient.DialOptions(proxyAddr, opts); err != nil {
				return // proxy itself is gone; the storm is over
			}
			continue
		}
		if reply.Err != "" {
			w.codes[reply.Code]++
			continue
		}
		w.accepted = append(w.accepted, time.Since(t0))
		if mutation {
			w.acked = w.issued
		}
	}
}
