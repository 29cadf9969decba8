package wal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"swisstm/internal/obs"
	"swisstm/internal/ticket"
)

// SyncMode selects the durability policy of a Writer.
type SyncMode uint8

const (
	// SyncGroup fsyncs groups: the log goroutine takes every frame
	// pending when it runs and issues one buffered write and one
	// fsync for the whole group. Every waiter is released only after
	// the fsync covering its frame returns.
	SyncGroup SyncMode = iota
	// SyncNone acknowledges before durability: Publish enqueues the
	// frame and returns, and the log goroutine writes it out without
	// fsync. A crash can lose acked ops; recovery still yields a
	// clean prefix.
	SyncNone
)

// ParseSyncMode parses the -fsync flag values: group, none.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want group or none)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	}
	return "unknown"
}

// Metrics is the writer's observability surface (DESIGN.md §12). All
// fields must be non-nil; NewMetrics wires them into a Registry under
// the promised names.
type Metrics struct {
	AppendNs    *obs.AtomicHist // Publish call → frame durable (SyncGroup only)
	FsyncNs     *obs.AtomicHist // per-batch fsync duration
	BatchFrames *obs.AtomicHist // frames coalesced per batch write
	Bytes       *obs.Counter    // frame bytes appended
	Frames      *obs.Counter    // frames appended
	Recovered   *obs.Counter    // frames replayed by recovery at open
}

// NewMetrics registers the WAL metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		AppendNs:    reg.Histogram("wal_append_ns"),
		FsyncNs:     reg.Histogram("wal_fsync_ns"),
		BatchFrames: reg.Histogram("wal_batch_size"),
		Bytes:       reg.Counter("wal_bytes_total"),
		Frames:      reg.Counter("wal_frames_total"),
		Recovered:   reg.Counter("wal_recovered_frames_total"),
	}
}

// Options configures Open.
type Options struct {
	// Dir holds the segment files; created if absent.
	Dir string
	// FS defaults to OSFS{}. Tests substitute a FaultFS.
	FS FS
	// Sync is the durability policy; default SyncGroup.
	Sync SyncMode
	// SegmentBytes triggers rotation once a segment reaches this
	// size; default 64 MiB. Segments may overshoot by one batch.
	SegmentBytes int64
	// Metrics defaults to a private unexported set.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Metrics == nil {
		o.Metrics = NewMetrics(obs.NewRegistry())
	}
	return o
}

// Ticket is a reserved slot in the log's total order. See Reserve.
// The zero Ticket is invalid.
type Ticket struct{ seq uint64 }

// publish is what the sequencer carries from Publish to admitLocked.
type publish struct {
	payload []byte
	done    chan error // non-nil when the publisher waits for durability
}

// Writer appends frames durably, in ticket order, via a single log
// goroutine that group-commits pending frames. Tickets are reserved
// inside transaction bodies, so ticket order agrees with the engines'
// commit order for conflicting transactions (DESIGN.md §12.2), and
// emitting frames strictly in ticket order keeps the durable log a
// prefix of the acknowledged history.
type Writer struct {
	opts Options
	fs   FS
	m    *Metrics

	seq *ticket.Sequencer[publish] // admits into pend, under mu

	mu       sync.Mutex
	err      error // sticky: first write/sync failure; poisons the writer
	closed   bool
	nextLSN  uint64
	pend     []byte // encoded frames admitted but not yet stolen by the log goroutine
	pendN    int
	waiters  []chan error // one per pending frame whose publisher waits
	syncReqs []chan error // Sync barriers

	notify chan struct{} // kicks the log goroutine; capacity 1
	quit   chan struct{} // closed by Close
	exited chan struct{} // closed when the log goroutine returns

	// Segment state, owned by the log goroutine after Open returns.
	seg        File
	segBytes   int64
	writtenLSN uint64 // last LSN handed to the segment file

	spare        []byte
	spareWaiters []chan error

	closeErr error
}

// Reserve draws the next slot in the log's total order. Every
// reserved ticket MUST be finished exactly once — by Publish or by
// Abandon — or the log stalls behind the gap. Reserve is an atomic
// add, cheap enough to call inside a transaction body.
func (w *Writer) Reserve() Ticket { return Ticket{w.seq.Reserve()} }

// Abandon cancels a reserved ticket (aborted attempt, failed
// operation). The sequencer skips its slot; no frame is written.
func (w *Writer) Abandon(t Ticket) {
	w.mu.Lock()
	if !w.closed && w.err == nil {
		w.seq.Abandon(t.seq)
	}
	w.mu.Unlock()
	// Closing the gap may have admitted parked frames whose publishers
	// are already waiting; wake the log goroutine for them.
	w.kick()
}

// Publish writes payload as the frame for ticket t. Under SyncGroup
// it returns once the frame is durable (or the writer failed); under
// SyncNone it returns as soon as the frame is enqueued. A non-nil
// error means the frame is NOT acknowledged as durable and the caller
// must not ack its client.
func (w *Writer) Publish(t Ticket, payload []byte) error {
	if err := checkPayload(payload); err != nil {
		w.Abandon(t)
		return err
	}
	wait := w.opts.Sync != SyncNone
	var start time.Time
	if wait {
		start = time.Now()
	}

	w.mu.Lock()
	if w.closed || w.err != nil {
		err := w.err
		if err == nil {
			err = ErrClosed
		}
		w.mu.Unlock()
		return err
	}
	var done chan error
	if wait {
		done = make(chan error, 1)
	}
	w.seq.Publish(t.seq, publish{payload, done})
	w.mu.Unlock()
	w.kick()

	if !wait {
		return nil
	}
	err := <-done
	w.m.AppendNs.Record(uint64(time.Since(start)))
	return err
}

// Append reserves, publishes, and returns the durability result —
// the convenience path for callers with no ordering concerns of
// their own (single-goroutine tools, tests).
func (w *Writer) Append(payload []byte) error {
	return w.Publish(w.Reserve(), payload)
}

// admitLocked is the sequencer's admit: it assigns the next LSN and
// encodes the frame into the pending buffer, under w.mu.
func (w *Writer) admitLocked(p publish) {
	w.pend = AppendFrame(w.pend, w.nextLSN, p.payload)
	w.nextLSN++
	w.pendN++
	if p.done != nil {
		w.waiters = append(w.waiters, p.done)
	}
}

// parkPublish copies a frame published ahead of its turn: the caller
// reuses its encode buffer.
func parkPublish(p publish) publish {
	p.payload = bytes.Clone(p.payload)
	return p
}

// discardParkedLocked answers err to every publisher still waiting
// behind a gap that will now never close. Their channels hold one
// result each, so the sends cannot block under w.mu.
func (w *Writer) discardParkedLocked(err error) {
	w.seq.Discard(func(p publish) {
		if p.done != nil {
			p.done <- err
		}
	})
}

// kick wakes the log goroutine if it is not already signalled.
func (w *Writer) kick() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// Sync blocks until every frame admitted before the call is written
// and fsynced (even under SyncNone), or returns the sticky error.
func (w *Writer) Sync() error {
	done := make(chan error, 1)
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.syncReqs = append(w.syncReqs, done)
	w.mu.Unlock()
	w.kick()
	return <-done
}

// LastLSN returns the LSN of the last admitted frame (0 if none).
func (w *Writer) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Err returns the sticky failure, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close drains admitted frames to disk, fsyncs, releases any stuck
// publishers with ErrClosed, and closes the segment. Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.closeErr
		w.mu.Unlock()
		<-w.exited
		return err
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit)
	<-w.exited
	w.mu.Lock()
	err := w.closeErr
	w.mu.Unlock()
	return err
}

// run is the log goroutine: it steals the pending buffer, performs
// one buffered write and one fsync per group, and releases the group's
// waiters.
//
// Under SyncGroup it yields once before taking a group. A goroutine
// that is already runnable — typically a connection that has just
// committed and is about to Publish — then joins this group instead of
// waiting out a whole fsync for the next one. On an idle server the
// yield returns at once, so a lone publisher waits for no company; no
// timer holds a group open.
func (w *Writer) run() {
	defer close(w.exited)
	for {
		select {
		case <-w.notify:
		case <-w.quit:
			w.finish()
			return
		}
		if w.opts.Sync == SyncGroup {
			runtime.Gosched()
		}
		w.flushPending(false)
	}
}

// flushPending steals and writes one batch. With final set it fsyncs
// even when there are only sync barriers and no frames.
func (w *Writer) flushPending(final bool) {
	w.mu.Lock()
	batch := w.pend
	frames := w.pendN
	waiters := w.waiters
	syncs := w.syncReqs
	w.pend = w.spare[:0]
	w.waiters = w.spareWaiters[:0]
	w.syncReqs = nil
	w.pendN = 0
	failed := w.err
	w.mu.Unlock()

	if failed != nil {
		release(waiters, failed)
		release(syncs, failed)
		return
	}
	var err error
	if frames > 0 {
		err = w.writeBatch(batch, frames, len(syncs) > 0 || final)
	} else if len(syncs) > 0 || final {
		err = w.syncSeg()
	}
	if err != nil {
		w.fail(err)
	}
	release(waiters, err)
	release(syncs, err)
	w.spare = batch[:0]
	w.spareWaiters = waiters[:0]
}

func release(chans []chan error, err error) {
	for _, c := range chans {
		c <- err
	}
}

// writeBatch performs the one-write-one-fsync group commit, rotating
// first if the current segment is full.
func (w *Writer) writeBatch(batch []byte, frames int, forceSync bool) error {
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if _, err := w.seg.Write(batch); err != nil {
		return err
	}
	w.segBytes += int64(len(batch))
	w.writtenLSN += uint64(frames)
	if w.opts.Sync != SyncNone || forceSync {
		if err := w.syncSeg(); err != nil {
			return err
		}
	}
	w.m.Bytes.Add(uint64(len(batch)))
	w.m.Frames.Add(uint64(frames))
	w.m.BatchFrames.Record(uint64(frames))
	return nil
}

func (w *Writer) syncSeg() error {
	t0 := time.Now()
	if err := w.seg.Sync(); err != nil {
		return err
	}
	w.m.FsyncNs.Record(uint64(time.Since(t0)))
	return nil
}

// rotate closes the full segment durably and opens the next one,
// named after the first LSN it will hold.
func (w *Writer) rotate() error {
	if err := w.seg.Sync(); err != nil {
		return err
	}
	if err := w.seg.Close(); err != nil {
		return err
	}
	seg, err := createSegment(w.fs, w.opts.Dir, w.writtenLSN+1)
	if err != nil {
		return err
	}
	w.seg = seg
	w.segBytes = SegMagicLen
	return nil
}

// createSegment creates a segment file with its magic header and
// makes the file itself durable (fsync file + directory).
func createSegment(fs FS, dir string, firstLSN uint64) (File, error) {
	f, err := fs.Create(segmentPath(dir, firstLSN))
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// fail records the sticky error and releases everyone stuck behind
// the sequencer: parked publishers and future publishes all see err.
func (w *Writer) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.discardParkedLocked(err)
	waiters := w.waiters
	w.waiters = nil
	syncs := w.syncReqs
	w.syncReqs = nil
	w.pend = w.pend[:0]
	w.pendN = 0
	w.mu.Unlock()
	release(waiters, err)
	release(syncs, err)
}

// finish is the shutdown path: drain every admitted frame, release
// parked publishers with ErrClosed, do a final write+fsync, close.
func (w *Writer) finish() {
	for {
		w.flushPending(true)
		w.mu.Lock()
		empty := w.pendN == 0 && len(w.syncReqs) == 0
		w.discardParkedLocked(ErrClosed)
		w.mu.Unlock()
		if empty {
			break
		}
	}
	err := w.seg.Close()
	w.mu.Lock()
	if w.closeErr == nil {
		if w.err != nil {
			w.closeErr = w.err
		} else {
			w.closeErr = err
		}
	}
	w.mu.Unlock()
}
