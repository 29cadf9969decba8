package txkvclient

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvwire"
	"swisstm/internal/util"
)

// Pipelined load mode (LoadConfig.Pipeline > 1): each connection is a
// Pipe with a submitter goroutine issuing the mix and a collector
// goroutine consuming in-order replies, up to Pipeline logical
// operations in flight per connection. The chained-CAS pattern (read
// then conditional swap) keeps its window slot across both round
// trips: the collector submits the CAS the moment the read's reply
// arrives, so the chain costs latency but never an idle window slot.
//
// Error replies with a load-shedding code (Overloaded, Draining,
// DeadlineExceeded) count as errored operations and the run continues
// — open-loop overload is exactly when they appear; retrying inline
// would distort the arrival schedule. Any other error reply fails the
// run.

// plOp tags one logical operation through the pipe.
type plOp struct {
	sched time.Time // open loop: scheduled arrival (zero in closed loop)
	t0    time.Time // first-frame submit time
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

// plWorker is one pipelined load connection.
type plWorker struct {
	cfg    LoadConfig
	p      *Pipe
	rng    *util.Rand
	dist   util.Dist
	shards int
	id     int
	seq    atomic.Uint64 // submitter and collector both mint write values
	tkeys  []uint64
	lat    []int64
	late   uint64
	errOps uint64
}

func newPlWorker(cfg LoadConfig, id int) (*plWorker, error) {
	p, err := DialPipe(cfg.Addr, cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	w := &plWorker{
		cfg:    cfg,
		p:      p,
		rng:    util.NewRand(harness.DeriveSeed(cfg.Seed, "txkvload/"+cfg.Mix.Name, cfg.Conns, id)),
		shards: txkv.ConfigForKeys(cfg.Keys).Shards,
		id:     id,
		lat:    make([]int64, 0, cfg.Ops/uint64(cfg.Conns)+1),
	}
	if cfg.Zipf > 0 {
		w.dist = util.NewZipf(cfg.Keys, cfg.Zipf)
	} else {
		w.dist = util.NewUniform(cfg.Keys)
	}
	if cfg.Mix.TransferPct > 0 {
		w.tkeys = make([]uint64, 0, cfg.Mix.TransferKeys)
	}
	return w, nil
}

func (w *plWorker) key() uint64 { return uint64(w.dist.Next(w.rng) + 1) }

func (w *plWorker) nextVal() uint64 {
	return uint64(w.id+1)<<40 | w.seq.Add(1)
}

// submitOp issues one mix operation's first frame. The TTL, when
// configured, rides every first frame (chained CAS frames inherit no
// TTL: the budget bounded the op's admission, and the swap is the
// tail of an op the server already invested in).
func (w *plWorker) submitOp(sched time.Time) error {
	m := w.cfg.Mix
	po := &plOp{sched: sched, t0: time.Now()}
	req := txkvwire.Req{TTL: w.cfg.Budget}
	last := true
	r := w.rng.Intn(100)
	switch {
	case r < m.ReadPct:
		req.Op, req.Key = txkvwire.OpGet, w.key()
	case r < m.ReadPct+m.UpdatePct:
		req.Op, req.Key, req.Val = txkvwire.OpPut, w.key(), w.nextVal()
	case r < m.ReadPct+m.UpdatePct+m.CASPct:
		// Chained: the read goes out now, the collector submits the CAS
		// (or releases) when the read's reply arrives.
		po.chain = true
		po.key = w.key()
		req.Op, req.Key = txkvwire.OpGet, po.key
		last = false
	case r < m.ReadPct+m.UpdatePct+m.CASPct+m.TransferPct:
		keys := w.tkeys[:0]
		for len(keys) < m.TransferKeys {
			c := w.key()
			dup := false
			for _, e := range keys {
				if e == c {
					dup = true
					break
				}
			}
			if !dup {
				keys = append(keys, c)
			}
		}
		w.tkeys = keys
		req.Op, req.Amount = txkvwire.OpTransfer, 1
		req.Keys = append([]uint64(nil), keys...)
	default: // scan
		req.Op, req.Shard = txkvwire.OpSum, int32(w.rng.Intn(w.shards))
	}
	return w.p.Submit(req, po, true, last)
}

// submitAll is the submitter: quota operations back to back in closed
// loop (tokens nil), one per arrival token in open loop, then the final
// tag. Before it waits outside the pipe — for the next arrival, or for
// good — it flushes: nothing else is due to push its frames out.
func (w *plWorker) submitAll(tokens <-chan time.Time, quota uint64) error {
	n := uint64(0)
	for ; tokens != nil || n < quota; n++ {
		var sched time.Time
		if tokens != nil {
			var ok bool
			select {
			case sched, ok = <-tokens:
			default:
				if err := w.p.Flush(); err != nil {
					return err
				}
				sched, ok = <-tokens
			}
			if !ok {
				break
			}
			if time.Since(sched) > w.cfg.LateThreshold {
				w.late++
			}
		}
		if err := w.submitOp(sched); err != nil {
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
func (w *plWorker) collect() error {
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
				err := w.p.Submit(txkvwire.Req{
					Op: txkvwire.OpCAS, Key: po.key, Old: reply.Val, Val: w.nextVal(),
				}, po, false, true)
				if err != nil {
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
		from := po.t0
		if !po.sched.IsZero() {
			from = po.sched
		}
		w.lat = append(w.lat, time.Since(from).Nanoseconds())
	}
	return nil
}

// runPipelined drives the whole pipelined run and returns the merged
// per-worker measurements.
func runPipelined(cfg LoadConfig, start time.Time) (lat []int64, lateOps, errOps uint64, err error) {
	workers := make([]*plWorker, cfg.Conns)
	for i := range workers {
		w, werr := newPlWorker(cfg, i)
		if werr != nil {
			for _, p := range workers[:i] {
				p.p.Close()
			}
			return nil, 0, 0, werr
		}
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			w.p.Close()
		}
	}()

	var runErr atomic.Value
	fail := func(err error) {
		if err != nil {
			runErr.CompareAndSwap(nil, err) // nolint: first error wins
		}
	}

	var tokens chan time.Time
	if cfg.Rate > 0 {
		// Shared open-loop arrival process, as in the synchronous mode.
		tokens = make(chan time.Time, cfg.Ops)
		interval := float64(time.Second) / cfg.Rate
		go func() {
			for i := uint64(0); i < cfg.Ops; i++ {
				sched := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				tokens <- sched
			}
			close(tokens)
		}()
	}

	var wg sync.WaitGroup
	for i, w := range workers {
		quota := cfg.Ops / uint64(cfg.Conns)
		if uint64(i) < cfg.Ops%uint64(cfg.Conns) {
			quota++
		}
		wg.Add(2)
		go func(w *plWorker, quota uint64) { // submitter
			defer wg.Done()
			if err := w.submitAll(tokens, quota); err != nil {
				fail(err)
				w.p.Close()
			}
		}(w, quota)
		go func(w *plWorker) { // collector
			defer wg.Done()
			if err := w.collect(); err != nil {
				fail(err)
				w.p.Close()
			}
		}(w)
	}
	wg.Wait()
	if err, _ := runErr.Load().(error); err != nil {
		return nil, 0, 0, err
	}

	for _, w := range workers {
		lat = append(lat, w.lat...)
		lateOps += w.late
		errOps += w.errOps
	}
	return lat, lateOps, errOps, nil
}
