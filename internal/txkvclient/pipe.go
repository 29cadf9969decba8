package txkvclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"swisstm/internal/txkvwire"
)

// ErrPipeClosed is returned by Pipe.Submit/Recv/Flush after Close, a
// failed write or a failed read.
var ErrPipeClosed = errors.New("txkvclient: pipe closed")

// Pipe is a pipelined connection: up to window logical operations in
// flight at once, replies matched to their requests by order (the
// server replies in request order — DESIGN.md §14.2).
//
// Concurrency contract: one goroutine calls Submit with first=true
// (the submitter), one goroutine calls Recv (the collector). The
// collector may also call Submit with first=false to chain a follow-up
// request onto a logical operation it is holding the window slot for
// (e.g. the CAS after its read), and Release to finish a chained
// operation early without another request.
//
// Writes are buffered: Submit appends its frame to a write buffer, and
// the buffer goes out in one Write where somebody is about to wait — a
// first Submit that finds the window full, a Recv whose reply is not
// already in the read buffer, an explicit Flush — so a burst of requests
// costs one write, as the server's burst of replies does.
//
// Liveness: frames are buffered in tag order and Recv flushes everything
// pending before it parks on the socket, so the reply it parks on was
// always requested. A frame submitted while the collector is parked
// waits at most until that reply arrives, unless its submitter blocks on
// the window or calls Flush: a submitter about to wait on something
// other than the pipe (a timer, a rate limiter) should Flush first, for
// latency, never for progress.
//
// The first failed write or read closes the pipe: the call that hit it
// returns the error, every Submit, Recv and Flush after it ErrPipeClosed
// — a reply that was lost or could not be decoded has consumed its tag,
// so the reply order is gone for good. Frames still buffered then, or at
// Close, are dropped.
type Pipe struct {
	conn net.Conn
	br   *bufio.Reader // the collector's alone: reads happen outside mu
	rbuf []byte

	// mu guards the rest, as in the server's reply ring. One critical
	// section appends a frame and queues its tag, so the tag order is the
	// wire order (submitter and chaining collector race).
	mu     sync.Mutex
	space  sync.Cond // inflight dropped below the window, or dead: wakes the submitter
	queued sync.Cond // a tag was queued, or dead: wakes the collector
	wbuf   []byte    // the frames submitted since the last flush
	// tags[head, tail) mod len are the frames awaiting a reply. An operation
	// in flight has at most one, so window entries are enough.
	tags       []pipeSlot
	head, tail int
	inflight   int // operations holding a window slot: first frame in, last reply not yet out
	dead       bool
}

type pipeSlot struct {
	tag  any
	last bool
}

// DialPipe connects a pipelined client with the given in-flight
// window (min 1).
func DialPipe(addr string, window int) (*Pipe, error) {
	if window < 1 {
		window = 1
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newPipe(conn, window), nil
}

func newPipe(conn net.Conn, window int) *Pipe {
	p := &Pipe{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), tags: make([]pipeSlot, window)}
	p.space.L, p.queued.L = &p.mu, &p.mu
	return p
}

// Submit buffers one request frame carrying tag; it does not touch the
// socket unless it has to wait. first acquires a window slot, flushing
// and then blocking while the window is full; last marks the operation's
// final frame — its reply releases the slot. A single-frame operation
// passes first=true, last=true.
func (p *Pipe) Submit(req txkvwire.Req, tag any, first, last bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if first && p.inflight == len(p.tags) {
		if err := p.flush(); err != nil {
			return err
		}
		for p.inflight == len(p.tags) && !p.dead {
			p.space.Wait()
		}
	}
	if p.dead {
		return ErrPipeClosed
	}
	if p.tail-p.head == len(p.tags) {
		panic("txkvclient: Submit(first=false) without a held window slot")
	}
	var err error
	if p.wbuf, err = txkvwire.AppendReqFrame(p.wbuf, req); err != nil {
		return err // wbuf is as it was
	}
	if first {
		p.inflight++
	}
	p.tags[p.tail%len(p.tags)] = pipeSlot{tag: tag, last: last}
	p.tail++
	p.queued.Signal()
	return nil
}

// Flush writes the buffered frames to the socket in one Write; with
// nothing buffered it does nothing.
func (p *Pipe) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flush()
}

func (p *Pipe) flush() error {
	if p.dead {
		return ErrPipeClosed
	}
	if len(p.wbuf) == 0 {
		return nil
	}
	_, err := p.conn.Write(p.wbuf)
	p.wbuf = p.wbuf[:0]
	if err != nil {
		p.kill() // also wakes a collector parked on the socket
	}
	return err
}

// Recv reads the next reply in order and returns it with its request's
// tag, flushing first unless the reply is already in the read buffer. A
// reply marked last releases the operation's window slot. Call only
// while frames are outstanding or a submit is coming (it blocks until
// the next reply).
func (p *Pipe) Recv() (tag any, last bool, reply txkvwire.Reply, err error) {
	p.mu.Lock()
	for p.head == p.tail && !p.dead {
		p.queued.Wait()
	}
	if p.dead {
		p.mu.Unlock()
		return nil, false, txkvwire.Reply{}, ErrPipeClosed
	}
	slot := p.tags[p.head%len(p.tags)]
	p.head++
	if !txkvwire.FrameBuffered(p.br) {
		err = p.flush()
	}
	p.mu.Unlock()
	if err == nil {
		p.rbuf, err = txkvwire.ReadFrame(p.br, p.rbuf)
	}
	if err == nil {
		reply, err = txkvwire.DecodeReply(p.rbuf)
	}
	if err != nil {
		p.Close() // wakes a submitter parked on the window
		return slot.tag, slot.last, txkvwire.Reply{}, err
	}
	if slot.last {
		p.Release()
	}
	return slot.tag, slot.last, reply, nil
}

// Release finishes a chained operation without a further request,
// freeing its window slot (the collector's "CAS read missed" path).
func (p *Pipe) Release() {
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
	p.space.Signal()
}

// Close tears the pipe down, waking a submitter blocked on the window
// and a collector blocked without outstanding frames. Frames submitted
// but not yet flushed are dropped.
func (p *Pipe) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kill()
}

// kill marks the pipe dead under mu, wakes both parked parties and closes
// the connection under a collector parked on the socket.
func (p *Pipe) kill() error {
	p.dead = true
	p.space.Signal()
	p.queued.Signal()
	return p.conn.Close()
}

// ErrFeedClosed is the clean end of a feed subscription: the server
// drained and delivered every event through the final frame.
var ErrFeedClosed = errors.New("txkvclient: feed closed (server draining)")

// Sub is one change-feed subscription (wire op Subscribe): a dedicated
// connection streaming one shard's committed mutations in commit
// order.
type Sub struct {
	conn  net.Conn
	br    *bufio.Reader
	rbuf  []byte
	acked bool
}

// DialSubscribe opens a subscription to shard's change feed starting
// at sequence from (0 = only new events, 1 = from the beginning of the
// retained window). The server acks before streaming; a lagged or
// invalid subscription fails here or at the Next that observes it.
func DialSubscribe(addr string, shard int, from uint64) (*Sub, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	wbuf, err := txkvwire.AppendReqFrame(nil, txkvwire.Req{
		Op: txkvwire.OpSubscribe, Shard: int32(shard), From: from})
	if err == nil {
		_, err = conn.Write(wbuf)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	s := &Sub{conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}
	// First frame is the ack (empty Events, no error).
	if _, err := s.Next(); err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// Next returns the next non-empty batch of feed events, skipping idle
// heartbeat frames. The subscription ends with ErrFeedClosed when the
// server drains; any other error is a lagged cursor, a rejection or a
// transport failure. The returned slice is valid until the next call.
func (s *Sub) Next() ([]txkvwire.FeedEvent, error) {
	for {
		var err error
		s.rbuf, err = txkvwire.ReadFrame(s.br, s.rbuf)
		if err != nil {
			return nil, err
		}
		reply, err := txkvwire.DecodeReply(s.rbuf)
		if err != nil {
			return nil, err
		}
		if reply.Err != "" {
			if reply.Code == txkvwire.CodeDraining {
				return nil, ErrFeedClosed
			}
			return nil, fmt.Errorf("txkvclient: feed: %s", reply.Err)
		}
		if len(reply.Events) > 0 {
			return reply.Events, nil
		}
		if !s.acked {
			// The server's subscription ack: an empty frame before the
			// stream starts. DialSubscribe's probe call returns on it.
			s.acked = true
			return nil, nil
		}
	}
}

// Close drops the subscription.
func (s *Sub) Close() error { return s.conn.Close() }
