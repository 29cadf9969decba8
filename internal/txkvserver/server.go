// Package txkvserver serves the transactional key-value store
// (internal/txkv) over TCP: length-prefixed binary frames
// (internal/txkvwire), one goroutine per connection, every request
// executed as one v2 transaction (stm.Atomic for writes, stm.AtomicRO
// for the read-only ops) against a shared engine-backed store, on any
// of the four engines.
//
// Engine threads are pooled: stm.Thread is per-worker state and
// stm.MaxThreads bounds how many can exist, so the server owns a small
// fixed pool and each request borrows a thread for exactly its
// transaction. The wait for a free thread is the request's queue phase
// — under saturation it is where latency accumulates, and the flat
// per-request phase counters (parse/queue/txn/commit/reply, DESIGN.md
// §10) make that visible through the Stats op instead of folding it
// into one opaque service time.
package txkvserver

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/harness"
	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvwire"
	"swisstm/internal/wal"
)

// Config describes one server instance.
type Config struct {
	// Engine selects and configures the backing engine.
	Engine harness.EngineSpec
	// Keys pre-fills the store with keys 1..Keys (default 1024).
	Keys int
	// Balance is the starting value per pre-filled key (default
	// txkv.DefaultBalance) — the unit of the balance-conservation oracle.
	Balance stm.Word
	// Threads sizes the engine thread pool (default 8, capped at
	// stm.MaxThreads).
	Threads int
	// Admin, when non-empty, is a second listen address serving the
	// HTTP observability surface (DESIGN.md §11): GET /metrics
	// (Prometheus text), /statz (JSON stats snapshot) and
	// /debug/pprof/* (CPU/heap/block profiles). Off by default: the
	// admin surface is unauthenticated, so bind it to loopback.
	Admin string
	// WALDir, when non-empty, turns on the durable commit log
	// (DESIGN.md §12): mutations are acknowledged only after their redo
	// record is in the log, and Start replays any existing log in the
	// directory before serving (the recovered population overrides
	// Keys/Balance).
	WALDir string
	// WALSync selects the log's durability mode: wal.SyncGroup (the
	// default) or wal.SyncNone; ignored without WALDir.
	WALSync wal.SyncMode
	// WALFS overrides the log's filesystem (fault injection in tests);
	// nil means the real one.
	WALFS wal.FS
	// ReadTimeout, when positive, bounds the wait for the next request
	// frame on an idle connection; the connection is dropped on expiry.
	// Zero means wait forever (the load-gen default: its connections
	// are legitimately idle between phases).
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each reply write so a client
	// that stops reading cannot pin a connection goroutine forever.
	WriteTimeout time.Duration

	// Admission control (DESIGN.md §13). All three default to 0 =
	// unbounded, the pre-admission behavior: dispatch blocks on the
	// thread pool forever and accept never refuses.
	//
	// MaxConns caps live client connections; excess connections get one
	// Overloaded error frame and are closed.
	MaxConns int
	// MaxQueue caps requests waiting for an engine thread across all
	// connections; a request arriving at a full queue is shed with
	// Overloaded instead of joining it.
	MaxQueue int
	// MaxQueueWait bounds how long one request may wait for an engine
	// thread before it is shed with Overloaded.
	MaxQueueWait time.Duration

	// Pipeline bounds the coalesced items one connection may have in
	// flight (DESIGN.md §14.2): enqueued on their shard batchers, replies
	// not yet written. Default 16. The bound is exact: it is the size of
	// the connection's reply ring. Ignored with coalescing off, where a
	// connection executes one request at a time.
	Pipeline int

	// CoalesceBatch, when positive, turns on per-shard commit coalescing
	// (DESIGN.md §14): single-key ops are routed to per-shard batchers
	// that execute up to CoalesceBatch items as ONE engine transaction
	// and ONE commit-log frame. Requires Threads + store shards ≤
	// stm.MaxThreads (each shard gets a dedicated engine thread).
	CoalesceBatch int
	// CoalesceWait is ignored: a shard batcher flushes whatever queued
	// while it was busy, and no timer holds a batch open. It remains only
	// for callers that still set it.
	CoalesceWait time.Duration
	// FeedCap is the per-shard change-feed ring capacity (default
	// coalesce.DefaultFeedCap). The feed is always on: every committed
	// mutation is published, whichever path executed it.
	FeedCap int
}

func (c *Config) fill() error {
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.Keys < 1 || c.Keys > txkv.MaxKeys {
		return fmt.Errorf("txkvserver: bad key population %d (want 1..%d)", c.Keys, txkv.MaxKeys)
	}
	if c.Balance == 0 {
		c.Balance = txkv.DefaultBalance
	}
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Threads < 1 || c.Threads > stm.MaxThreads {
		return fmt.Errorf("txkvserver: thread pool size %d out of range 1..%d", c.Threads, stm.MaxThreads)
	}
	if c.Pipeline == 0 {
		c.Pipeline = 16
	}
	if c.Pipeline < 1 {
		return fmt.Errorf("txkvserver: pipeline window %d out of range (want ≥ 1)", c.Pipeline)
	}
	return nil
}

// Server is one listening txkv service instance.
type Server struct {
	cfg    Config
	ln     net.Listener
	eng    stm.STM
	store  *txkv.Store
	pool   chan *worker
	m      *metrics
	txnObs *obs.TxnObs

	wal     *wal.Writer     // nil when the commit log is off
	walM    *wal.Metrics    // non-nil iff wal is
	walInfo wal.RecoverInfo // what Start's recovery scan found

	co         *coalesce.Coalescer // nil with coalescing off
	coM        *coalesce.Metrics   // non-nil iff co is
	feeds      []*coalesce.Feed    // one change feed per store shard, always on
	feedEvents *obs.Counter        // txkv_feed_events_total

	adminLn  net.Listener
	adminSrv *http.Server

	// draining tells connection loops to stop picking up new requests;
	// set by Drain before it stamps immediate read deadlines. drainc is
	// its channel twin, closed at the same moment, so a request already
	// waiting in the admission queue can select on it and answer
	// Draining instead of hanging until a thread frees up.
	draining atomic.Bool
	drainc   chan struct{}
	queued   atomic.Int64  // requests currently waiting for a pool thread
	fatal    chan struct{} // closed when the accept loop dies unexpectedly

	// statsMu serializes drainStats: a stats snapshot empties the whole
	// thread pool, so two concurrent snapshots would deadlock splitting it.
	statsMu sync.Mutex

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closed    bool
	acceptErr error
	wg        sync.WaitGroup
	// subWg tracks connections that became feed subscribers: they
	// outlive the request plane (wg) and are released only after the
	// feeds close, so a drain can flush the request plane first and
	// still hand subscribers every committed event before goodbye.
	subWg sync.WaitGroup
}

// worker is one pooled engine thread.
type worker struct {
	th stm.Thread
}

// Start builds the engine, pre-fills the store and begins serving on
// addr (e.g. "127.0.0.1:0" for an ephemeral loopback port).
func Start(addr string, cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if _, err := harness.ParseKinds(cfg.Engine.Kind, ""); err != nil {
		return nil, fmt.Errorf("txkvserver: %w", err)
	}
	// Arm per-transaction telemetry on the server's own engine instance
	// (the spec is a value copy, so this clobbers nothing outside it).
	txnObs := obs.NewTxnObs()
	cfg.Engine.TxnObs = txnObs
	if cfg.WALDir != "" && cfg.WALFS == nil {
		cfg.WALFS = wal.OSFS{}
	}
	s := &Server{
		cfg:    cfg,
		eng:    cfg.Engine.New(),
		txnObs: txnObs,
		pool:   make(chan *worker, cfg.Threads),
		conns:  make(map[net.Conn]struct{}),
		drainc: make(chan struct{}),
		fatal:  make(chan struct{}),
	}
	for i := 0; i < cfg.Threads; i++ {
		s.pool <- &worker{th: s.eng.NewThread(i)}
	}

	// Build the store on a pool thread: from the commit log's clean
	// prefix when one exists (the log, not the flags, defines the
	// recovered population), from the Keys/Balance baseline otherwise —
	// in bounded transactions, so the balance-conservation oracle has a
	// known starting sum.
	w := <-s.pool
	if cfg.WALDir != "" {
		store, info, err := txkv.ReplayWAL(cfg.WALFS, cfg.WALDir, w.th)
		if err != nil {
			return nil, fmt.Errorf("txkvserver: wal recovery: %w", err)
		}
		s.store, s.walInfo = store, info
	}
	recovered := s.store != nil
	if !recovered {
		s.store = txkv.NewInitialized(w.th, cfg.Keys, cfg.Balance)
	}
	s.pool <- w

	s.m = newMetrics(s.store.Shards())
	s.m.reg.RegisterCollector(s.collectEngine)

	// Change feeds are always on: every mutating path publishes its
	// committed mutations, so subscribers see one consistent per-shard
	// stream whichever path (pooled or coalesced) executed the write.
	s.feedEvents = s.m.reg.Counter("txkv_feed_events_total")
	s.feeds = make([]*coalesce.Feed, s.store.Shards())
	for i := range s.feeds {
		s.feeds[i] = coalesce.NewFeed(cfg.FeedCap, s.feedEvents)
	}

	if cfg.WALDir != "" {
		s.walM = wal.NewMetrics(s.m.reg)
		wr, err := wal.Open(wal.Options{
			Dir: cfg.WALDir, FS: cfg.WALFS, Sync: cfg.WALSync, Metrics: s.walM,
		})
		if err != nil {
			return nil, fmt.Errorf("txkvserver: wal open: %w", err)
		}
		s.wal = wr
		if !recovered {
			// Frame 1 of a fresh log records the baseline population, so
			// replay needs no out-of-band configuration. Durable before
			// the first client is accepted, whatever the sync mode.
			if err := s.logInit(); err != nil {
				wr.Close()
				return nil, fmt.Errorf("txkvserver: wal init record: %w", err)
			}
		}
	}

	if cfg.CoalesceBatch > 0 {
		shards := s.store.Shards()
		if cfg.Threads+shards > stm.MaxThreads {
			if s.wal != nil {
				s.wal.Close()
			}
			return nil, fmt.Errorf("txkvserver: coalescing needs %d pool + %d shard threads > stm.MaxThreads (%d)",
				cfg.Threads, shards, stm.MaxThreads)
		}
		// Dedicated engine threads for the shard workers, above the
		// pool's 0..Threads-1 range.
		threads := make([]stm.Thread, shards)
		for i := range threads {
			threads[i] = s.eng.NewThread(cfg.Threads + i)
		}
		s.coM = coalesce.NewMetrics(s.m.reg)
		s.co = coalesce.New(s.store, threads, s.wal, s.feeds, coalesce.Config{
			BatchSize: cfg.CoalesceBatch,
			Metrics:   s.coM,
			Conflicts: s.m.recordConflicts,
		})
	}

	if cfg.Admin != "" {
		if err := s.startAdmin(cfg.Admin); err != nil {
			if s.co != nil {
				s.co.Close()
			}
			if s.wal != nil {
				s.wal.Close()
			}
			return nil, err
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if s.adminSrv != nil {
			s.adminSrv.Close()
		}
		if s.co != nil {
			s.co.Close()
		}
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// logInit durably appends the log's init record (frame 1).
func (s *Server) logInit() error {
	buf, err := txkv.AppendRedo(nil, []txkv.RedoEntry{
		{Op: txkv.RedoInit, Key: stm.Word(s.cfg.Keys), Val: s.cfg.Balance},
	})
	if err != nil {
		return err
	}
	if err := s.wal.Append(buf); err != nil {
		return err
	}
	return s.wal.Sync()
}

// WalRecovery reports what Start's recovery scan found (the zero
// value when the commit log is off or the directory was fresh).
func (s *Server) WalRecovery() wal.RecoverInfo { return s.walInfo }

// Done is closed when the server dies on its own — the accept loop
// failing while the server is not shutting down. Err then reports why.
func (s *Server) Done() <-chan struct{} { return s.fatal }

// Err returns the accept-loop error that closed Done, if any.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acceptErr
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Engine returns the display name of the backing engine.
func (s *Server) Engine() string { return s.eng.Name() }

// Close stops accepting, closes every live connection immediately
// (in-flight requests are abandoned) and waits for the connection
// goroutines; with the commit log on it then flushes and closes the
// log, so every previously acknowledged write is durable.
func (s *Server) Close() error { return s.shutdown(false) }

// Drain is the graceful twin of Close: stop accepting, let each
// connection finish the request it is serving (and ack it durably),
// then stop reading further requests, flush and sync the commit log,
// and return. A drained shutdown loses no acknowledged operation.
func (s *Server) Drain() error { return s.shutdown(true) }

func (s *Server) shutdown(drain bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	if s.adminSrv != nil {
		s.adminSrv.Close()
	}
	if drain {
		// Flag first, then stamp immediate read deadlines: a connection
		// blocked on its next frame wakes with a timeout and exits; one
		// mid-request finishes, sees the flag at the loop top and exits.
		// (serveConn re-checks the flag after re-arming its deadline, so
		// this order cannot strand a connection on a fresh timeout.)
		// Closing drainc wakes requests already waiting in the admission
		// queue: they reply Draining instead of hanging for a thread.
		s.draining.Store(true)
		close(s.drainc)
		now := time.Now()
		for c := range s.conns {
			c.SetReadDeadline(now)
		}
	} else {
		close(s.drainc)
		for c := range s.conns {
			c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	// Request plane quiet: every accepted request completed (pending
	// coalesced items flushed — their replies gate the goroutines wg
	// just waited for). Stop the batchers, then close the feeds so
	// subscriber connections flush their remaining events, send a final
	// Draining frame and exit.
	if s.co != nil {
		s.co.Close()
	}
	for _, f := range s.feeds {
		f.Close()
	}
	s.subWg.Wait()
	if s.wal != nil {
		// All connection goroutines are done: every acknowledged write
		// has been published. Close drains and syncs the log.
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Expected when Close/Drain tears the listener down; anything
			// else is fatal — surface it so the process can exit non-zero
			// instead of serving nothing forever.
			s.mu.Lock()
			if !s.closed && s.acceptErr == nil {
				s.acceptErr = err
				close(s.fatal)
			}
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.m.connsRejected.Inc()
			// Tell the client why before hanging up, off the accept path
			// so a slow-reading reject cannot stall admission.
			go rejectConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// rejectConn answers a connection over the MaxConns cap: one Overloaded
// error frame (so a code-aware client backs off and retries rather than
// seeing an opaque hangup), then close. Bounded by a write deadline —
// a client that never reads cannot pin the goroutine.
func rejectConn(conn net.Conn) {
	defer conn.Close()
	obuf, err := txkvwire.AppendReply(nil, txkvwire.Reply{
		Op: txkvwire.OpInvalid, Err: "overloaded: connection limit reached", Code: txkvwire.CodeOverloaded,
	})
	if err != nil {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	bw := bufio.NewWriterSize(conn, 256)
	if txkvwire.WriteFrame(bw, obuf) == nil {
		bw.Flush()
	}
}

// conn is one client connection's serving state (DESIGN.md §14.2).
type conn struct {
	s    *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	obuf []byte // reply encode buffer
	// cm is the commit scope of the pooled requests this connection
	// executes, one at a time.
	cm *coalesce.Commit

	ring   *replyRing // nil with coalescing off
	failed bool       // a reply write failed; the connection is closed

	// subs and replies hold a Batch's sub-requests and sub-replies from
	// decode to writeReply, on this goroutine only; each grows to the
	// largest Batch the connection has sent (DESIGN.md §10.2).
	subs    []txkvwire.Req
	replies []txkvwire.Reply
}

// serveConn runs one connection on one goroutine: read a frame, execute
// it, buffer the reply, flush once no complete request is left in the
// read buffer. A unary request costs one read and one write, a pipelined
// burst still goes out as one write, and requests take effect in the
// order the connection sent them. Only coalesced ops are executed
// elsewhere — enqueued here, answered here once their batches flush —
// and every other request waits for their replies first, so the order
// holds across both execution paths.
func (s *Server) serveConn(nc net.Conn) {
	c := &conn{s: s, nc: nc, br: bufio.NewReaderSize(nc, 16<<10), bw: bufio.NewWriterSize(nc, 4<<10),
		cm: coalesce.NewCommit(s.store, s.wal, s.feeds)}
	if s.co != nil {
		c.ring = newReplyRing(s.cfg.Pipeline)
	}
	sub := c.serve()
	// Answer what is still in flight: a drained connection acks every
	// request it accepted before it closes.
	c.answer()
	if !c.failed {
		c.bw.Flush()
	}
	nc.Close()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	if sub {
		s.subWg.Done() // the wg slot was released at the subscribe takeover
	} else {
		s.wg.Done()
	}
}

// serve is the connection's request loop. It returns when the client
// goes away, the server drains, a reply cannot be written, or the
// connection became a feed subscriber and its stream ended (sub: per
// the wire contract no request is read after a subscribe).
func (c *conn) serve() (sub bool) {
	s := c.s
	var fbuf []byte
	// The phase stamps chain (DESIGN.md §13.2): t0 starts a request's parse
	// phase, and inside a burst — this frame was already buffered, nothing
	// blocked — it is the last clock reading of the request before.
	var t0 time.Time
	for {
		if s.draining.Load() {
			return false // drained: the previous request was the last one read
		}
		buffered := txkvwire.FrameBuffered(c.br)
		if !buffered {
			// About to block on the socket: answer the coalesced replies
			// owed first, so none of them waits for the client's next frame.
			if !c.answer() {
				return false
			}
			if s.cfg.ReadTimeout > 0 {
				c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
				if s.draining.Load() {
					return false // re-check: the re-armed deadline must not outlive a drain
				}
			}
		}
		payload, err := txkvwire.ReadFrame(c.br, fbuf)
		if err != nil {
			return false // client went away, read timed out or framing broke
		}
		fbuf = payload

		if !buffered {
			t0 = time.Now()
		}
		req, derr := txkvwire.DecodeReqInto(payload, c.subs)
		op := txkvwire.OpInvalid
		if derr == nil {
			op = req.Op
			if cap(req.Sub) > cap(c.subs) {
				c.subs = req.Sub
			}
			derr = s.validate(req, true)
		}
		// parsed ends the parse phase and starts the queue phase: it is a
		// coalesced item's enqueue stamp.
		parsed := time.Now()
		parseNs := uint64(parsed.Sub(t0))
		// The deadline clock starts at arrival (frame decoded), not
		// at client send: the TTL is a budget for server-side work,
		// and the wire carries a duration precisely so that clock
		// skew between client and server cannot distort it.
		var deadline time.Time
		if req.TTL > 0 {
			deadline = t0.Add(req.TTL)
		}
		t0 = parsed

		var (
			reply                           txkvwire.Reply
			queueNs, txnNs, commitNs, walNs uint64
		)
		if derr != nil {
			reply = txkvwire.Reply{Op: op, Err: derr.Error(), Code: txkvwire.CodeRejected}
		} else if s.co != nil && coalesce.Accepts(op) {
			// Enqueued here, so this connection's ops land in the shard
			// queues in request order: pipelined read-your-writes. A full
			// window is answered first — back-pressure on the wire instead
			// of an unbounded queue; the enqueue never blocks (a full
			// shard queue sheds).
			if c.ring.full() {
				if !c.answer() {
					return false
				}
				t0 = time.Now() // the wait is this item's queue time, not the next one's parse
			}
			sl := c.ring.reserve(parseNs)
			sl.Init(op, stm.Word(req.Key), stm.Word(req.Val), stm.Word(req.Old), deadline, sl)
			code, msg := s.co.EnqueueAt(&sl.Item, parsed)
			if code == 0 {
				continue
			}
			c.ring.unreserve()
			s.m.recordShed(code, code == txkvwire.CodeOverloaded)
			reply = txkvwire.Reply{Op: op, Err: msg, Code: code}
		}

		// Everything else is answered after the in-flight coalesced
		// replies: the wait (booked as queue time) keeps replies in
		// request order and makes a coalesced write visible to the pooled
		// request pipelined behind it.
		if c.ring != nil {
			if !c.answer() {
				return false
			}
			queueNs = uint64(time.Since(parsed))
		}
		switch {
		case reply.Code != 0: // rejected or shed above: nothing to execute
		case op == txkvwire.OpSubscribe:
			c.subscribe(req, parseNs)
			return true
		default:
			var q uint64
			reply, q, txnNs, commitNs, walNs = c.dispatch(req, deadline)
			queueNs += q
		}
		r0 := time.Now()
		if !c.writeReply(reply, !txkvwire.FrameBuffered(c.br)) {
			return false
		}
		t0 = time.Now()
		s.m.record(op, [phaseCount]uint64{parseNs, queueNs, txnNs, commitNs, walNs, uint64(t0.Sub(r0))})
	}
}

// fail marks the reply side broken and closes the connection, which
// also wakes a connection goroutine blocked reading the next frame.
func (c *conn) fail() {
	c.failed = true
	c.nc.Close()
}

// writeReply encodes and buffers one reply frame — length prefix and
// payload in one Write, so the frame is never torn across two — and
// flushes when asked. The write deadline is armed only for a call that
// reaches the socket: once per flushed burst or pass. False means the
// connection is broken (and now closed).
func (c *conn) writeReply(reply txkvwire.Reply, flush bool) bool {
	buf, err := txkvwire.AppendReplyFrame(c.obuf[:0], reply)
	if err != nil {
		// An unencodable reply is a server bug; degrade to an error
		// frame rather than silently dropping the connection.
		buf, _ = txkvwire.AppendReplyFrame(c.obuf[:0], txkvwire.Reply{
			Op: reply.Op, Err: "internal: unencodable reply", Code: txkvwire.CodeInternal})
	}
	c.obuf = buf
	if d := c.s.cfg.WriteTimeout; d > 0 && (flush || len(buf) > c.bw.Available()) {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := c.bw.Write(buf); err != nil || (flush && c.bw.Flush() != nil) {
		c.fail()
		return false
	}
	return true
}

// dispatch executes one validated request on the calling (connection)
// goroutine: it borrows a pool thread (bounded by the admission limits
// and the request's deadline) and runs the transaction, returning the
// reply and the queue/txn/commit/wal phase times. The commit scope
// publishes after the worker is back in the pool: a group fsync blocks
// only this connection, never an engine thread.
//
// Every exit path — shed, expired, executed — reports its queue time,
// so txkv_phase_ns{phase="queue"} covers rejected admissions too and
// total stays the phase sum by construction (DESIGN.md §13).
func (c *conn) dispatch(req txkvwire.Req, deadline time.Time) (reply txkvwire.Reply, queueNs, txnNs, commitNs, walNs uint64) {
	s := c.s
	if req.Op == txkvwire.OpStats {
		// Stats needs no engine thread: it drains the pool itself to
		// read the per-thread counters race-free. It also skips
		// admission — the observability plane must answer precisely
		// when the serving plane is saturated.
		return s.statsReply(), 0, 0, 0, 0
	}
	q0 := time.Now()
	w, code, msg, queueFull := s.admit(q0, deadline)
	queueNs = uint64(time.Since(q0).Nanoseconds())
	if w == nil {
		s.m.recordShed(code, queueFull)
		return txkvwire.Reply{Op: req.Op, Err: msg, Code: code}, queueNs, 0, 0, 0
	}
	abortsBefore := w.th.Stats().Aborts
	reply, txnNs, commitNs = c.execute(w, &req)
	// Attribute this request's engine aborts to the shard its (first)
	// key hashes to — the per-shard conflict heat map (DESIGN.md §11).
	// Safe while we hold the worker: the thread is quiescent between
	// its transactions, and only the borrower touches it.
	if d := w.th.Stats().Aborts - abortsBefore; d > 0 {
		s.m.recordConflicts(s.reqShard(req), d)
	}
	s.pool <- w
	walNs, err := c.cm.Publish()
	if err != nil {
		// The client must treat the op as not acknowledged. Internal, not
		// retryable: the mutation may have applied in memory, so a blind
		// retry could double-apply it.
		reply = txkvwire.Reply{Op: req.Op, Err: "wal: " + err.Error(), Code: txkvwire.CodeInternal}
	}
	return reply, queueNs, txnNs, commitNs, walNs
}

// admit borrows an engine thread subject to the admission bounds
// (DESIGN.md §13): the request's deadline, Config.MaxQueue and
// Config.MaxQueueWait, and an in-progress drain. On refusal it returns
// a nil worker plus the typed code and message for the shed reply;
// queueFull distinguishes the occupancy shed from the wait-limit shed
// for the reason-labeled counter.
func (s *Server) admit(now, deadline time.Time) (w *worker, code txkvwire.Code, msg string, queueFull bool) {
	if !deadline.IsZero() && !now.Before(deadline) {
		return nil, txkvwire.CodeDeadlineExceeded, "deadline expired before execution", false
	}
	// Fast path: a free thread admits immediately. The queue bounds
	// waiters, not throughput, so occupancy is only checked when the
	// request would actually wait.
	select {
	case w = <-s.pool:
		return w, 0, "", false
	default:
	}
	n := s.queued.Add(1)
	defer s.queued.Add(-1)
	if max := s.cfg.MaxQueue; max > 0 && n > int64(max) {
		return nil, txkvwire.CodeOverloaded, "overloaded: admission queue full", true
	}
	// Wait bounded by whichever of MaxQueueWait and the deadline bites
	// first; the code reports which bound fired. No bound and no
	// deadline means wait indefinitely (but never through a drain).
	wait := s.cfg.MaxQueueWait
	code, msg = txkvwire.CodeOverloaded, "overloaded: queue wait limit exceeded"
	if !deadline.IsZero() {
		if d := time.Until(deadline); wait == 0 || d < wait {
			if d <= 0 {
				return nil, txkvwire.CodeDeadlineExceeded, "deadline expired waiting for an engine thread", false
			}
			wait, code, msg = d, txkvwire.CodeDeadlineExceeded, "deadline expired waiting for an engine thread"
		}
	}
	var timec <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timec = t.C
	}
	select {
	case w = <-s.pool:
		return w, 0, "", false
	case <-timec:
		return nil, code, msg, false
	case <-s.drainc:
		return nil, txkvwire.CodeDraining, "draining: server shutting down", false
	}
}

// reqShard maps a request to the store shard its first key hashes to,
// or −1 for requests that touch many shards (sum/len/batch) and so
// belong in the "multi" conflict bucket.
func (s *Server) reqShard(req txkvwire.Req) int {
	switch req.Op {
	case txkvwire.OpGet, txkvwire.OpPut, txkvwire.OpDelete, txkvwire.OpCAS:
		return s.store.ShardOf(stm.Word(req.Key))
	case txkvwire.OpTransfer:
		if len(req.Keys) > 0 {
			return s.store.ShardOf(stm.Word(req.Keys[0]))
		}
	}
	return -1
}

// validate rejects requests that the store defines as configuration
// errors (it panics on them) before any transaction starts: reserved
// sentinel keys and out-of-range shard indices.
func (s *Server) validate(req txkvwire.Req, batchOK bool) error {
	badKey := func(k uint64) bool {
		return k == uint64(0) || k == ^uint64(0)
	}
	switch req.Op {
	case txkvwire.OpGet, txkvwire.OpPut, txkvwire.OpDelete, txkvwire.OpCAS:
		if badKey(req.Key) {
			return fmt.Errorf("%s: key %d is reserved", req.Op, req.Key)
		}
	case txkvwire.OpTransfer:
		for _, k := range req.Keys {
			if badKey(k) {
				return fmt.Errorf("transfer: key %d is reserved", k)
			}
		}
	case txkvwire.OpSum:
		if req.Shard < -1 || int(req.Shard) >= s.store.Shards() {
			return fmt.Errorf("sum: shard %d out of range (store has %d)", req.Shard, s.store.Shards())
		}
	case txkvwire.OpSubscribe:
		if req.Shard < 0 || int(req.Shard) >= s.store.Shards() {
			return fmt.Errorf("subscribe: shard %d out of range (store has %d)", req.Shard, s.store.Shards())
		}
	case txkvwire.OpBatch:
		if !batchOK {
			return errors.New("batch: nested batch")
		}
		for i, sub := range req.Sub {
			if err := s.validate(sub, false); err != nil {
				return fmt.Errorf("batch[%d]: %w", i, err)
			}
		}
	}
	return nil
}

// execute runs one validated request as one transaction on the borrowed
// thread. txnNs is the body duration of the final (committing) attempt;
// commitNs is the rest of the atomic call — begin, commit, and any
// aborted attempts with their back-off. A mutating body runs inside the
// commit scope (coalesce.Commit); the caller publishes it after returning
// the worker to the pool.
func (c *conn) execute(w *worker, req *txkvwire.Req) (reply txkvwire.Reply, txnNs, commitNs uint64) {
	s, cm := c.s, c.cm
	defer func() {
		// A foreign panic out of a transaction body (e.g. a shard
		// overflowing on Put) has already rolled the attempt back and
		// released its locks (stm.Thread.Unwind); surface it as an error
		// reply instead of tearing the whole server down.
		if r := recover(); r != nil {
			cm.Abandon()
			reply = txkvwire.Reply{Op: req.Op, Err: fmt.Sprintf("%s: %v", req.Op, r), Code: txkvwire.CodeInternal}
		}
	}()

	var bodyNs int64
	a0 := time.Now()
	switch req.Op {
	case txkvwire.OpGet, txkvwire.OpSum, txkvwire.OpLen:
		reply = stm.AtomicRO(w.th, func(tx stm.TxRO) txkvwire.Reply {
			b0 := time.Now()
			r, _ := s.readOp(tx, req)
			bodyNs = time.Since(b0).Nanoseconds()
			return r
		})
	case txkvwire.OpPut, txkvwire.OpDelete, txkvwire.OpCAS, txkvwire.OpTransfer, txkvwire.OpBatch:
		var err error
		reply, err = stm.AtomicErr(w.th, func(tx stm.Tx) (txkvwire.Reply, error) {
			cm.Begin()
			b0 := time.Now()
			r, err := c.apply(tx, req)
			if err == nil {
				cm.Reserve()
			}
			bodyNs = time.Since(b0).Nanoseconds()
			return r, err
		})
		if err != nil {
			// Batch aborts are all client-condition failures (CAS miss,
			// absent delete, failing transfer): retrying verbatim would hit
			// the same condition, so they are permanent Rejected.
			reply = txkvwire.Reply{Op: req.Op, Err: err.Error(), Code: txkvwire.CodeRejected}
		}
	default:
		return txkvwire.Reply{Op: req.Op, Err: "unhandled op", Code: txkvwire.CodeInternal}, 0, 0
	}
	totalNs := time.Since(a0).Nanoseconds()
	txnNs = uint64(bodyNs)
	if rest := totalNs - bodyNs; rest > 0 {
		commitNs = uint64(rest)
	}
	return reply, txnNs, commitNs
}

// apply runs req inside tx: a unary request is a batch of one. What
// differs is what a conditional op that fails (CAS miss, delete of an
// absent key, refused transfer) means. Alone it is its reply's OK=false.
// In a Batch it is an error out of the body, which rolls the whole
// transaction back — no sub-op's write survives — and surfaces as an
// error reply naming the failing index.
func (c *conn) apply(tx stm.Tx, req *txkvwire.Req) (txkvwire.Reply, error) {
	s, cm := c.s, c.cm
	if req.Op != txkvwire.OpBatch {
		reply, _ := s.applyOp(tx, cm, req)
		return reply, nil
	}
	if cap(c.replies) < len(req.Sub) {
		c.replies = make([]txkvwire.Reply, len(req.Sub))
	}
	subs := c.replies[:len(req.Sub)]
	for i := range req.Sub {
		var why string
		if subs[i], why = s.applyOp(tx, cm, &req.Sub[i]); why != "" {
			return txkvwire.Reply{}, fmt.Errorf("batch aborted at index %d: %s: %s", i, req.Sub[i].Op, why)
		}
	}
	return txkvwire.Reply{Op: req.Op, Sub: subs}, nil
}

// applyOp runs one non-batch op inside tx, mutations through the commit
// scope so that exactly what the attempt applied is recorded for the log
// and the feeds. why is empty unless the op changed nothing and says so:
// a failed conditional, or an op that cannot run here.
func (s *Server) applyOp(tx stm.Tx, cm *coalesce.Commit, req *txkvwire.Req) (reply txkvwire.Reply, why string) {
	key := stm.Word(req.Key)
	var ok bool
	switch req.Op {
	case txkvwire.OpPut:
		return txkvwire.Reply{Op: req.Op, OK: cm.Put(tx, key, stm.Word(req.Val))}, ""
	case txkvwire.OpDelete:
		ok, why = cm.Delete(tx, key), "key absent"
	case txkvwire.OpCAS:
		ok, why = cm.CAS(tx, key, stm.Word(req.Old), stm.Word(req.Val)), "key not at expected value"
	case txkvwire.OpTransfer:
		// The redo record keeps req.Keys until Publish; the decoder
		// allocated it for this request alone.
		ok, why = cm.Transfer(tx, req.Keys, stm.Word(req.Amount)), "refused"
	default:
		return s.readOp(tx, req)
	}
	if ok {
		why = ""
	}
	return txkvwire.Reply{Op: req.Op, OK: ok}, why
}

// readOp runs one read-only op.
func (s *Server) readOp(tx stm.TxRO, req *txkvwire.Req) (reply txkvwire.Reply, why string) {
	switch req.Op {
	case txkvwire.OpGet:
		v, found := s.store.Get(tx, stm.Word(req.Key))
		return txkvwire.Reply{Op: req.Op, Found: found, Val: uint64(v)}, ""
	case txkvwire.OpSum:
		if req.Shard < 0 {
			return txkvwire.Reply{Op: req.Op, Val: uint64(s.store.SumAll(tx))}, ""
		}
		return txkvwire.Reply{Op: req.Op, Val: uint64(s.store.SumShard(tx, int(req.Shard)))}, ""
	case txkvwire.OpLen:
		return txkvwire.Reply{Op: req.Op, Val: uint64(s.store.Len(tx))}, ""
	}
	return txkvwire.Reply{}, "not allowed in a batch"
}

// drainStats sums the engine counters across the whole thread pool
// plus the coalescer's shard workers. It drains the pool so every
// thread is idle while its counters are read (stm.Thread.Stats is not
// safe to call concurrently with the thread's own transactions);
// requests queued behind the drain simply see one long queue phase.
// statsMu serializes concurrent drains — two of them would each hold
// part of the pool and deadlock waiting for the rest.
func (s *Server) drainStats() stm.Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	ws := make([]*worker, cap(s.pool))
	for i := range ws {
		ws[i] = <-s.pool
	}
	var sum stm.Stats
	for _, w := range ws {
		sum.Add(w.th.Stats())
	}
	for _, w := range ws {
		s.pool <- w
	}
	if s.co != nil {
		sum.Add(s.co.Stats())
	}
	return sum
}

// statsSnapshot builds the full wire Stats: phase sums and latency
// percentiles from the metrics registry, engine totals and the abort
// causes from the drained thread pool.
func (s *Server) statsSnapshot() txkvwire.Stats {
	st := s.m.snapshot()
	es := s.drainStats()
	st.Commits = es.Commits
	st.Aborts = es.Aborts
	st.AbortCauses = es.AbortCauses
	if s.walM != nil {
		st.WalFrames = s.walM.Frames.Load()
		st.WalBytes = s.walM.Bytes.Load()
		st.WalRecovered = s.walM.Recovered.Load()
		st.WalFsyncs = s.walM.FsyncNs.Snapshot().Count
	}
	if s.coM != nil {
		st.CoalesceBatches = s.coM.Batches.Load()
		st.CoalesceItems = s.coM.Items.Load()
	}
	st.FeedEvents = s.feedEvents.Load()
	return st
}

// statsReply answers the wire Stats op.
func (s *Server) statsReply() txkvwire.Reply {
	st := s.statsSnapshot()
	return txkvwire.Reply{Op: txkvwire.OpStats, Stats: &st}
}
