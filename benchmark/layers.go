package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Per-layer measurements of the traced run that are not read off the
// workload's own epochs: each times one layer's public functions alone,
// on the workload's own inputs where the layer has inputs.

// layerSizes are the iteration counts of the stand-alone measurements.
type layerSizes struct {
	reps      int // repetitions whose median is reported
	emptyTxns int // empty transactions per repetition
	ringOps   int // operations of the service ring applied per repetition
	nullTrips int // round trips through the null server
	walRecs   int // records appended per repetition
	coEach    int // items each of the coalescer's 128 waiters enqueues
}

var (
	fullSizes  = layerSizes{reps: 5, emptyTxns: 400000, ringOps: ringLen, nullTrips: 20000, walRecs: 100000, coEach: 1000}
	smokeSizes = layerSizes{reps: 1, emptyTxns: 1000, ringOps: 1000, nullTrips: 200, walRecs: 1000, coEach: 4}
)

// medianOf runs fn reps times and returns the median of what it reports.
func medianOf(reps int, fn func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// emptyTxnNs times stm.Atomic with an empty body: the engine's fixed
// begin+commit cost, and the stm run loop's.
func emptyTxnNs(kind string, sz layerSizes) (float64, error) {
	var ns float64
	err := guard("empty transaction", func() error {
		th := newEngine(kind, 1<<10).NewThread(1)
		body := func(tx) bool { return true }
		var err error
		ns, err = medianOf(sz.reps, func() (float64, error) {
			t0 := time.Now()
			for i := 0; i < sz.emptyTxns; i++ {
				atomicBool(th, body)
			}
			return float64(time.Since(t0)) / float64(sz.emptyTxns), nil
		})
		return err
	})
	return ns, err
}

// otherEngines runs the in-process workload w on the three engines the
// gated run does not use: three short untraced epochs each, median
// throughput.
//
// An epoch that fails (its oracle, or a panic of the engine) is left out
// of the median and reported in a note; an engine with no good epoch reads
// 0. It does not fail the run: these engines are not what the run gates,
// and one of them does fail. TinySTM loses an update about once in twenty
// million contended transfers (README.md, Known failure), which would
// otherwise end one traced run of kv-hot-transfer in thirty with no result.
func otherEngines(p plan, suffix string) (values, []string) {
	out := values{}
	var notes []string
	for _, kind := range []string{"tl2", "tinystm", "rstm"} {
		q := p
		q.kind, q.traced, q.quota = kind, false, max(p.quota/4/p.w.callers*p.w.callers, p.w.callers*warmShare)
		var xs []float64
		for e := 0; e < otherEngineEpochs; e++ {
			r, err := q.runEpoch(e, false)
			if err != nil {
				notes = append(notes, fmt.Sprintf("NOT MEASURED: %s epoch %d of %d failed and is left out of %s.%s: %v", kind, e, otherEngineEpochs, kind, suffix, err))
				continue
			}
			xs = append(xs, r.opsPerS())
		}
		out[kind+"."+suffix] = median(xs)
	}
	return out, notes
}

const otherEngineEpochs = 3

// prefillNsPerKey times txkv.NewInitialized for the workload's key
// population.
func prefillNsPerKey(kind string, arena, keys int, sz layerSizes) (float64, error) {
	var ns float64
	err := guard("txkv prefill", func() error {
		var err error
		ns, err = medianOf(sz.reps, func() (float64, error) {
			th := newEngine(kind, arena).NewThread(0)
			t0 := time.Now()
			kvNewInitialized(th, keys, svcBalance)
			return float64(time.Since(t0)) / float64(keys), nil
		})
		return err
	})
	return ns, err
}

// txkvOpNs applies the service workload's operation stream in process,
// through Store.Get/Put/CAS on one thread: what the store and engine
// cost per operation once client, wire, server and log are taken away.
func txkvOpNs(kind string, ring []kvOp, sz layerSizes) (float64, error) {
	var ns float64
	err := guard("txkv operations", func() error {
		e := newEngine(kind, svcArena)
		th := e.NewThread(0)
		store := kvNewInitialized(th, svcKeys, svcBalance)
		var key, old, val word
		get := func(t txRO) word { v, _ := store.Get(t, key); return v }
		put := func(t tx) bool { return store.Put(t, key, val) }
		cas := func(t tx) bool { return store.CAS(t, key, old, val) }
		var err error
		ns, err = medianOf(sz.reps, func() (float64, error) {
			t0 := time.Now()
			for _, op := range ring {
				key = word(op.key)
				val++
				switch op.kind {
				case kindGet:
					atomicROWord(th, get)
				case kindPut:
					atomicBool(th, put)
				case kindCAS:
					old = atomicROWord(th, get)
					atomicBool(th, cas)
				}
			}
			return float64(time.Since(t0)) / float64(len(ring)), nil
		})
		return err
	})
	return ns, err
}

// opFrames returns the request an operation sends and the reply it gets,
// as the codec and the null server see them. (A CAS pair is measured as
// its CAS frame.)
func opFrames(op kvOp) (wireReq, wireReply) {
	switch op.kind {
	case kindGet:
		return wireReq{Op: opGet, Key: op.key}, wireReply{Op: opGet, Found: true, Val: op.key << 20}
	case kindPut:
		return wireReq{Op: opPut, Key: op.key, Val: op.key << 20}, wireReply{Op: opPut}
	default:
		return wireReq{Op: opCAS, Key: op.key, Old: op.key << 20, Val: op.key<<20 + 1}, wireReply{Op: opCAS, OK: true}
	}
}

// codecNs times the four codec calls on the workload's own frames and
// returns the client's half (AppendReq + DecodeReply) and the server's
// half (DecodeReq + AppendReply), ns per request.
func codecNs(ring []kvOp, sz layerSizes) (clientNs, serverNs float64, err error) {
	reqs := make([][]byte, len(ring))
	reps := make([][]byte, len(ring))
	for i, op := range ring {
		rq, rp := opFrames(op)
		if reqs[i], err = wireAppendReq(nil, rq); err != nil {
			return 0, 0, err
		}
		if reps[i], err = wireAppendReply(nil, rp); err != nil {
			return 0, 0, err
		}
	}
	var buf []byte
	clientNs, err = medianOf(sz.reps, func() (float64, error) {
		t0 := time.Now()
		for i, op := range ring {
			rq, _ := opFrames(op)
			var err error
			if buf, err = wireAppendReq(buf[:0], rq); err != nil {
				return 0, err
			}
			if _, err = wireDecodeReply(reps[i]); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(len(ring)), nil
	})
	if err != nil {
		return 0, 0, err
	}
	serverNs, err = medianOf(sz.reps, func() (float64, error) {
		t0 := time.Now()
		for i, op := range ring {
			_, rp := opFrames(op)
			if _, err := wireDecodeReq(reqs[i]); err != nil {
				return 0, err
			}
			var err error
			if buf, err = wireAppendReply(buf[:0], rp); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(len(ring)), nil
	})
	return clientNs, serverNs, err
}

// nullServer is the transport floor: a TCP server speaking the same
// length-prefixed framing as txkvserver that does nothing with a frame
// but answer it — with the frame itself, or with a fixed reply so that a
// real txkvclient can talk to it.
type nullServer struct {
	ln    net.Listener
	reply []byte // nil: echo
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startNullServer(reply []byte) (*nullServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &nullServer{ln: ln, reply: reply}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serve(c)
		}
	}()
	return s, nil
}

func (s *nullServer) serve(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	br := bufio.NewReaderSize(c, 16<<10)
	bw := bufio.NewWriterSize(c, 4<<10)
	var buf []byte
	for {
		p, err := wireReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = p
		if s.reply != nil {
			p = s.reply
		}
		if wireWriteFrame(bw, p) != nil || bw.Flush() != nil {
			return
		}
	}
}

func (s *nullServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener and every connection and waits for the
// goroutines.
func (s *nullServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// timeTrips runs trip for a warm-up tenth and then sz.nullTrips times,
// returning the sorted durations of the latter.
func timeTrips(sz layerSizes, trip func() error) ([]int64, error) {
	lat := make([]int64, 0, sz.nullTrips)
	for i := -sz.nullTrips / warmShare; i < sz.nullTrips; i++ {
		t0 := time.Now()
		if err := trip(); err != nil {
			return nil, err
		}
		if i >= 0 {
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	slices.Sort(lat)
	return lat, nil
}

// nullRTT measures round trips of one request-sized frame through the
// null server over raw framing: the loopback transport, two goroutine
// wake-ups and the framing code, nothing else.
func nullRTT(payload []byte, sz layerSizes) (sorted []int64, err error) {
	s, err := startNullServer(nil)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	c, err := net.Dial("tcp", s.addr())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	br := bufio.NewReader(c)
	bw := bufio.NewWriterSize(c, 4<<10)
	var buf []byte
	return timeTrips(sz, func() error {
		if err := wireWriteFrame(bw, payload); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		var err error
		buf, err = wireReadFrame(br, buf)
		return err
	})
}

// clientOverNull measures the same round trips made by the real client
// (the unary Client, or a Pipe with one request in flight) against the
// null server answering a fixed Get reply: what txkvclient adds to raw
// framing, codec included.
func clientOverNull(piped bool, sz layerSizes) (sorted []int64, err error) {
	reply, err := wireAppendReply(nil, wireReply{Op: opGet, Found: true, Val: 1})
	if err != nil {
		return nil, err
	}
	s, err := startNullServer(reply)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	req := wireReq{Op: opGet, Key: 1}
	if piped {
		p, err := pipeDial(s.addr(), 1)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		return timeTrips(sz, func() error {
			if err := p.Submit(req, nil, true, true); err != nil {
				return err
			}
			_, _, _, err := p.Recv()
			return err
		})
	}
	c, err := clientDial(s.addr())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return timeTrips(sz, func() error { _, err := c.Do(req); return err })
}

// walRecord is the size of the redo record one Put logs.
const walRecord = 19

// walAppendNs times wal.Writer.Append alone in SyncNone, ns per record.
func walAppendNs(tmp string, sz layerSizes) (ns float64, err error) {
	dir := filepath.Join(tmp, "wal-append")
	defer os.RemoveAll(dir)
	w, err := walOpen(dir)
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, w.Close()) }()
	rec := make([]byte, walRecord)
	return medianOf(sz.reps, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < sz.walRecs; i++ {
			rec[0] = byte(i)
			if err := w.Append(rec); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(sz.walRecs), nil
	})
}

// coalesceEnqueueToDone measures Enqueue → Item.Done in process, with no
// TCP, log or feed: 128 goroutines (8 per shard on average; with no wire
// to pace them, the workload's 512 would overflow a hot shard's queue),
// each waiting for its own item the way a server request does.
func coalesceEnqueueToDone(kind string, ring []kvOp, sz layerSizes) (sorted []int64, err error) {
	err = guard("coalesce", func() error {
		e := newEngine(kind, svcArena)
		store := kvNewInitialized(e.NewThread(0), svcKeys, svcBalance)
		threads := make([]thread, store.Shards())
		for i := range threads {
			threads[i] = e.NewThread(i + 1)
		}
		co := coalesceNew(store, threads, coBatch, coWait)
		defer co.Close()
		const inflight = 128
		each := sz.coEach
		lats := make([][]int64, inflight)
		var wg sync.WaitGroup
		var refused sync.Once
		var refusal error
		for g := 0; g < inflight; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					op := ring[(g*each+i)%len(ring)]
					it := coalescePut(word(op.key), word(g)<<40|word(i+1))
					t0 := time.Now()
					if code, msg := co.Enqueue(it); code != 0 {
						refused.Do(func() { refusal = fmt.Errorf("enqueue refused: %s", msg) })
						return
					}
					<-it.Done()
					lats[g] = append(lats[g], int64(time.Since(t0)))
				}
			}(g)
		}
		wg.Wait()
		for _, l := range lats {
			sorted = append(sorted, l...)
		}
		slices.Sort(sorted)
		return refusal
	})
	return sorted, err
}
