package main

import (
	"errors"
	"fmt"
	"sync"
)

// cores is what the loads are sized for: this host has two, and a caller
// thread per core is the most load that does not oversubscribe it.
const cores = 2

// workload is one entry of the benchmark.
type workload struct {
	name string
	why  string
	// callers is the number of closed-loop callers: caller threads in
	// process, connections over TCP.
	callers int
	// opsPerSec is the operation quota per second of -seconds, for all
	// callers together: a constant close to what this host sustains, so
	// that "-seconds 24" measures for about 24 s here. The quota is
	// fixed work: a faster build finishes it sooner instead of wandering
	// further into a growing structure.
	opsPerSec int
	// traceEvery is the span sampling period of the traced run (a power
	// of two): the in-process transfer is so short that tracing each one
	// would measure the tracer.
	traceEvery int
	// inputs generates the epoch's operation rings from the seed; it runs
	// before set-up is timed. Nil for bench7, whose operations are drawn
	// by the repo's own Ops.Op from the seeded RNG the benchmark hands it.
	inputs func(c buildCtx) inputs
	build  func(c buildCtx) (instance, error)
}

// inputs are one epoch's pre-generated operation rings, one per caller,
// and the memory the benchmark's own bookkeeping needs: allocating it is
// not set-up of the system under test.
type inputs struct {
	transfers [][]word
	ops       [][]kvOp
	last      [][]uint64 // service callers' last-acknowledged-write tables
}

// buildCtx is what an epoch hands to a workload's build function.
type buildCtx struct {
	name    string // workload name, the label of its seed streams
	kind    string // engine kind
	callers int
	seed    uint64
	epoch   int
	perCal  int    // operations each caller will run in this epoch (warm-up included)
	tmp     string // scratch directory for this epoch's files
	in      inputs
}

func (c buildCtx) callerSeed(caller int) uint64 {
	return deriveSeed(c.seed, c.name, c.epoch, caller)
}

// instance is one epoch's freshly built state.
type instance interface {
	// run has every caller perform n operations in a closed loop and
	// returns once all are done. trs holds one tracer per caller, all nil
	// with tracing off. failed counts operations the system refused or
	// answered wrongly.
	run(n int, trs []*tracer) (failed int, err error)
	// check runs the workload's correctness oracle.
	check() error
	// counts reads the layers' cumulative public counters.
	counts() (counters, error)
	// close drops the state.
	close() error
}

// counters are cumulative; the timed section reports their difference.
type counters struct {
	eng       engineStats // caller threads' engine counters (in-process workloads)
	arenaUsed uint64      // words bump-allocated from the engine arena
	srv       wireStats   // the wire Stats op (service workloads)
}

var workloads = []workload{
	{
		name:       "bench7-rw",
		why:        "STMBench7 read-write mix in process: long read-mostly transactions, so the engine read path, validation and the stm run loop do nearly all the work",
		callers:    cores,
		opsPerSec:  85000,
		traceEvery: 1,
		build:      buildBench7,
	},
	{
		name:       "kv-hot-transfer",
		why:        "4-key txkv transfers on 1024 zipfian keys in process: short contended write transactions, the same engine used through lock acquire, commit, abort and the contention manager",
		callers:    cores,
		opsPerSec:  1500000,
		traceEvery: 64,
		inputs:     transferInputs,
		build:      buildTransfer,
	},
	{
		name:       "svc-update-pooled",
		why:        "update-heavy mix over loopback TCP through the server's pooled path with the WAL on: client, wire, server and WAL dominate, so an engine change must show no change here",
		callers:    cores,
		opsPerSec:  68000,
		traceEvery: 1,
		inputs:     serviceInputs,
		build:      func(c buildCtx) (instance, error) { return buildService(c, false) },
	},
	{
		name:       "svc-update-coalesced",
		why:        "the same mix, keys and seed through 32 pipelined connections of window 16 and the per-shard coalescer: the server's other execution path, the only place batching gains can show",
		callers:    pipedConns,
		opsPerSec:  150000,
		traceEvery: 8,
		inputs:     serviceInputs,
		build:      func(c buildCtx) (instance, error) { return buildService(c, true) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCallers runs fn once per caller on its own goroutine and waits for
// all of them. A panic in the system under test (an exhausted arena, a
// full shard) comes back as an error with a plain message.
func runCallers(n int, fn func(caller int) (failed int, err error)) (int, error) {
	var (
		wg     sync.WaitGroup
		failed = make([]int, n)
		errs   = make([]error, n)
		start  = make(chan struct{})
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("caller %d: the system under test panicked: %v", i, r)
				}
			}()
			<-start
			failed[i], errs[i] = fn(i)
		}(i)
	}
	close(start)
	wg.Wait()
	total := 0
	for _, f := range failed {
		total += f
	}
	return total, errors.Join(errs...)
}

// guard turns a panic of the system under test during set-up into an error.
func guard(what string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: the system under test panicked: %v", what, r)
		}
	}()
	return fn()
}
