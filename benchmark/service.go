package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The two service workloads: svc-update-pooled and svc-update-coalesced.

const (
	svcKeys         = 65536
	svcBalance word = 1000
	svcArena        = 1 << 20 // twice the 524 288 slot words of a 65 536-key store
	svcThreads      = 2
	// pipeWindow is each pipelined connection's window: the server's
	// default, which every caller in the repository uses.
	pipeWindow = 16
	// pipedConns is how many such connections svc-update-coalesced keeps
	// busy: 16 shards × a batch of 32 ÷ a window of 16, the fewest with
	// which every shard's batch can fill by size. A closed loop measures
	// the code only when the server is saturated. With 2 connections there
	// are 2 operations in flight per shard, every batch waits out its
	// flush timer on an idle core, and throughput follows the host's timer
	// wake-up latency (12 000 to 30 000 operations a second within ten
	// minutes); 4 connections use 0.9 of the two cores, 8 use 1.4, 16 use
	// 1.75 and 32 use 1.9.
	pipedConns = 32
	coBatch    = 32
	coWait     = 200 * time.Microsecond
	svcZipf    = 0.99
)

var svcZipfOnce = sync.OnceValue(func() *zipf { return newZipf(svcKeys, svcZipf) })

// serviceInputs draws both service workloads' rings from one label, so
// the pooled workload's two callers and the coalesced workload's first two
// run identical streams for a given seed.
func serviceInputs(c buildCtx) (in inputs) {
	in.ops = make([][]kvOp, c.callers)
	in.last = make([][]uint64, c.callers)
	for i := range in.ops {
		in.ops[i] = genUpdateHeavy(deriveSeed(c.seed, "svc-update", c.epoch, i), svcZipfOnce(), min(c.perCal, ringLen))
		in.last[i] = make([]uint64, svcKeys+1)
	}
	return in
}

type svcInst struct {
	coalesced bool
	dir       string
	srv       *server
	ctl       *client
	ctlSent   uint64 // requests sent on the control connection
	cs        []*svcCaller
}

// control sends one request on the control connection.
func (in *svcInst) control(req wireReq) (wireReply, error) {
	in.ctlSent++
	reply, err := in.ctl.Do(req)
	if err == nil && reply.Err != "" {
		err = fmt.Errorf("server answered %q", reply.Err)
	}
	return reply, err
}

// svcCaller is one connection's state. last[k] is the last value this
// caller had acknowledged as written to key k (0: never wrote it).
type svcCaller struct {
	id   int
	ring []kvOp
	pos  int
	done int // operations run so far: the next request id
	seq  uint64
	last []uint64
	sent uint64 // wire requests sent

	cl *client
	pp *pipe
	tr *tracer

	// free holds the pipelined client's idle tags: the submitter takes
	// one per operation, the collector returns it when the operation
	// completed. One more than the window, for the operation the submitter
	// is preparing while the window is full.
	free chan *pipeTag
}

// pipeTag travels with a request through the pipe. The submitter fills
// it before Submit and the collector reads it after Recv; the pipe's
// tag queue orders the two.
type pipeTag struct {
	kind     uint8
	chained  bool // this frame is the Get of a CAS; the CAS follows
	key, val uint64
	req      uint32
	traced   bool
	opStart  int64 // the operation's first Submit called
	subStart int64 // this frame's Submit called
	// The first frame of a chained pair, kept until the operation's root
	// span exists.
	firstStart, firstEnd int64
}

func buildService(c buildCtx, coalesced bool) (instance, error) {
	in := &svcInst{coalesced: coalesced, dir: filepath.Join(c.tmp, fmt.Sprintf("wal-%d", c.epoch)), cs: make([]*svcCaller, c.callers)}
	batch := 0
	if coalesced {
		batch = coBatch
	}
	var err error
	in.srv, err = serverStart(c.kind, svcArena, svcKeys, svcBalance, svcThreads, in.dir, batch, coWait)
	if err != nil {
		return nil, fmt.Errorf("txkvserver.Start: %w", err)
	}
	addr := in.srv.Addr().String()
	if in.ctl, err = clientDial(addr); err != nil {
		in.close()
		return nil, fmt.Errorf("dial control connection: %w", err)
	}
	for i := range in.cs {
		sc := &svcCaller{id: i, ring: c.in.ops[i], last: c.in.last[i]}
		if coalesced {
			sc.pp, err = pipeDial(addr, pipeWindow)
			sc.free = make(chan *pipeTag, pipeWindow+1)
			for j := 0; j < cap(sc.free); j++ {
				sc.free <- new(pipeTag)
			}
		} else {
			sc.cl, err = clientDial(addr)
		}
		if err != nil {
			in.close()
			return nil, fmt.Errorf("dial caller %d: %w", i, err)
		}
		in.cs[i] = sc
	}
	return in, nil
}

func (sc *svcCaller) nextVal() uint64 {
	sc.seq++
	return uint64(sc.id+1)<<40 | sc.seq
}

func (sc *svcCaller) nextOp() kvOp {
	op := sc.ring[sc.pos]
	if sc.pos++; sc.pos == len(sc.ring) {
		sc.pos = 0
	}
	return op
}

// do is Client.Do in a span.
func (sc *svcCaller) do(req wireReq, traced bool, parent int32, id uint32) (wireReply, error) {
	sc.sent++
	if !traced {
		return sc.cl.Do(req)
	}
	s := sc.tr.begin(spanClientDo, parent, id)
	reply, err := sc.cl.Do(req)
	sc.tr.finish(s)
	return reply, err
}

// runUnary is the closed loop of one synchronous client.
func (sc *svcCaller) runUnary(n int, tr *tracer) (failed int, err error) {
	sc.tr = tr
	for i := 0; i < n; i++ {
		op := sc.nextOp()
		id := uint32(sc.done + i)
		traced := tr.sampled(sc.done + i)
		root := int32(-1)
		if traced {
			root = tr.begin(spanOp, -1, id)
		}
		var reply wireReply
		switch op.kind {
		case kindGet:
			reply, err = sc.do(wireReq{Op: opGet, Key: op.key}, traced, root, id)
			if err == nil && (reply.Err != "" || !reply.Found) {
				failed++
			}
		case kindPut:
			val := sc.nextVal()
			reply, err = sc.do(wireReq{Op: opPut, Key: op.key, Val: val}, traced, root, id)
			if err == nil && reply.Err != "" {
				failed++
			} else if err == nil {
				sc.last[op.key] = val
			}
		case kindCAS:
			reply, err = sc.do(wireReq{Op: opGet, Key: op.key}, traced, root, id)
			if err != nil {
				break
			}
			if reply.Err != "" || !reply.Found {
				failed++
				break
			}
			val := sc.nextVal()
			reply, err = sc.do(wireReq{Op: opCAS, Key: op.key, Old: reply.Val, Val: val}, traced, root, id)
			if err == nil && reply.Err != "" {
				failed++
			} else if err == nil && reply.OK {
				sc.last[op.key] = val
			}
		}
		if err != nil {
			return failed, fmt.Errorf("caller %d: %w", sc.id, err)
		}
		if traced {
			tr.finish(root)
		}
	}
	sc.done += n
	return failed, nil
}

// submit sends one frame of the pipelined client and stamps its tag.
func (sc *svcCaller) submit(req wireReq, t *pipeTag, first, last bool) error {
	if t.traced {
		t.subStart = sc.tr.now()
		if first {
			t.opStart = t.subStart
		}
	}
	return sc.pp.Submit(req, t, first, last)
}

// runPiped is the closed loop of one pipelined client: this goroutine
// submits, a second one collects the in-order replies and chains the CAS
// of each optimistic pair. All spans are appended by the collector.
func (sc *svcCaller) runPiped(n int, tr *tracer) (failed int, err error) {
	sc.tr = tr
	var (
		wg     sync.WaitGroup
		colErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				colErr = fmt.Errorf("collector %d panicked: %v", sc.id, r)
			}
			if colErr != nil {
				sc.pp.Close() // wake a submitter blocked on the window
			}
		}()
		failed, colErr = sc.collect(n)
	}()
	sent := uint64(0)
	for i := 0; i < n && err == nil; i++ {
		op := sc.nextOp()
		t := <-sc.free
		*t = pipeTag{kind: op.kind, key: op.key, req: uint32(sc.done + i), traced: tr.sampled(sc.done + i)}
		sent++
		switch op.kind {
		case kindGet:
			err = sc.submit(wireReq{Op: opGet, Key: op.key}, t, true, true)
		case kindPut:
			t.val = sc.nextVal()
			err = sc.submit(wireReq{Op: opPut, Key: op.key, Val: t.val}, t, true, true)
		case kindCAS:
			t.chained = true
			t.val = sc.nextVal()
			err = sc.submit(wireReq{Op: opGet, Key: op.key}, t, true, false)
		}
	}
	if err != nil {
		sc.pp.Close() // the collector would wait for replies that never come
	}
	wg.Wait()
	sc.done += n
	sc.sent += sent
	return failed, errors.Join(err, colErr)
}

// collect receives until n operations completed.
func (sc *svcCaller) collect(n int) (failed int, err error) {
	for completed := 0; completed < n; {
		tag, _, reply, err := sc.pp.Recv()
		if err != nil {
			return failed, fmt.Errorf("caller %d: recv: %w", sc.id, err)
		}
		t := tag.(*pipeTag)
		now := int64(0)
		if t.traced {
			now = sc.tr.now()
		}
		if t.chained && reply.Err == "" && reply.Found {
			// The Get of an optimistic pair: chain the CAS on the same
			// window slot.
			t.chained = false
			t.firstStart, t.firstEnd = t.subStart, now
			sc.sent++
			if err := sc.submit(wireReq{Op: opCAS, Key: t.key, Old: reply.Val, Val: t.val}, t, false, true); err != nil {
				return failed, fmt.Errorf("caller %d: submit cas: %w", sc.id, err)
			}
			continue
		}
		switch {
		case t.chained: // the Get missed or was refused: the operation ends here
			sc.pp.Release()
			failed++
		case reply.Err != "", t.kind == kindGet && !reply.Found:
			failed++
		case t.kind == kindPut, t.kind == kindCAS && reply.OK:
			sc.last[t.key] = t.val
		}
		if t.traced {
			root := sc.tr.add(spanOp, -1, t.req, t.opStart, now)
			if t.firstEnd != 0 {
				sc.tr.add(spanPipeTrip, root, t.req, t.firstStart, t.firstEnd)
			}
			sc.tr.add(spanPipeTrip, root, t.req, t.subStart, now)
		}
		sc.free <- t
		completed++
	}
	return failed, nil
}

func (in *svcInst) run(n int, trs []*tracer) (int, error) {
	return runCallers(len(in.cs), func(c int) (int, error) {
		if in.coalesced {
			return in.cs[c].runPiped(n, trs[c])
		}
		return in.cs[c].runUnary(n, trs[c])
	})
}

func (in *svcInst) stats() (wireStats, error) {
	reply, err := in.control(wireReq{Op: opStats})
	if err == nil && reply.Stats == nil {
		err = errors.New("the reply carries no stats")
	}
	if err != nil {
		return wireStats{}, fmt.Errorf("stats: %w", err)
	}
	return *reply.Stats, nil
}

func (in *svcInst) counts() (counters, error) {
	st, err := in.stats()
	return counters{srv: st}, err
}

// check is the service oracle, over the control connection: the server
// served one reply per request sent, the key population is intact, and
// every key holds either its starting balance (nobody wrote it) or the
// last value one of the callers had acknowledged.
func (in *svcInst) check() error {
	sent := in.ctlSent
	for _, sc := range in.cs {
		sent += sc.sent
	}
	st, err := in.stats()
	if err != nil {
		return err
	}
	// The server's writer counts a request after writing its reply, while
	// its reader is already handling the next: the last request of each
	// connection may not be counted yet, nor, on the control connection,
	// the Stats request being answered.
	if st.Requests > sent || st.Requests+uint64(len(in.cs))+2 < sent {
		return fmt.Errorf("server served %d requests, the clients sent %d", st.Requests, sent)
	}
	if st.Sheds != 0 {
		return fmt.Errorf("server shed %d requests of a closed loop", st.Sheds)
	}
	reply, err := in.control(wireReq{Op: opLen})
	if err != nil {
		return fmt.Errorf("len: %w", err)
	}
	if reply.Val != svcKeys {
		return fmt.Errorf("key population changed: %d keys, want %d", reply.Val, svcKeys)
	}
	sub := make([]wireReq, 0, maxWireBatch)
	for lo := 1; lo <= svcKeys; lo += maxWireBatch {
		sub = sub[:0]
		for k := lo; k < lo+maxWireBatch && k <= svcKeys; k++ {
			sub = append(sub, wireReq{Op: opGet, Key: uint64(k)})
		}
		reply, err := in.control(wireReq{Op: opBatch, Sub: sub})
		if err != nil || len(reply.Sub) != len(sub) {
			return fmt.Errorf("batch read of keys %d..%d: %v", lo, lo+len(sub)-1, err)
		}
		for i, r := range reply.Sub {
			if !r.Found {
				return fmt.Errorf("key %d lost", lo+i)
			}
			if err := in.checkKey(uint64(lo+i), r.Val); err != nil {
				return err
			}
		}
	}
	return nil
}

func (in *svcInst) checkKey(key, got uint64) error {
	written := false
	for _, sc := range in.cs {
		if v := sc.last[key]; v != 0 {
			written = true
			if v == got {
				return nil
			}
		}
	}
	if !written && got == uint64(svcBalance) {
		return nil
	}
	return fmt.Errorf("key %d holds %#x, which is not the last acknowledged write of any caller", key, got)
}

func (in *svcInst) close() error {
	var errs []error
	for _, sc := range in.cs {
		switch {
		case sc == nil:
		case sc.cl != nil:
			sc.cl.Close()
		case sc.pp != nil:
			sc.pp.Close()
		}
	}
	if in.ctl != nil {
		in.ctl.Close()
	}
	if in.srv != nil {
		errs = append(errs, in.srv.Drain())
	}
	errs = append(errs, os.RemoveAll(in.dir))
	return errors.Join(errs...)
}
