package txkvclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"swisstm/internal/txkvwire"
)

// ErrPipeClosed is returned by Pipe.Submit/Recv after Close.
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
type Pipe struct {
	conn net.Conn
	br   *bufio.Reader

	// mu serializes frame write + tag enqueue, so the tag FIFO order is
	// exactly the wire order (submitter and chaining collector race).
	mu   sync.Mutex
	wbuf []byte

	tags chan pipeSlot
	sem  chan struct{} // window slots: acquired first-frame, released last-reply

	rbuf []byte

	dead chan struct{}
	once sync.Once
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
	return &Pipe{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 16<<10),
		// Each in-flight op has at most one outstanding frame, so the
		// FIFO never holds more than window slots; the slack means an
		// enqueue under mu can never block.
		tags: make(chan pipeSlot, 2*window+8),
		sem:  make(chan struct{}, window),
		dead: make(chan struct{}),
	}
}

// Submit sends one request frame carrying tag, in one Write. first
// acquires a window slot (blocking while the window is full); last marks
// the operation's final frame — its reply releases the slot. A
// single-frame operation passes first=true, last=true.
func (p *Pipe) Submit(req txkvwire.Req, tag any, first, last bool) error {
	if first {
		select {
		case p.sem <- struct{}{}:
		case <-p.dead:
			return ErrPipeClosed
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	p.wbuf, err = txkvwire.AppendReqFrame(p.wbuf[:0], req)
	if err == nil {
		_, err = p.conn.Write(p.wbuf)
	}
	if err != nil {
		if first {
			<-p.sem
		}
		return err
	}
	p.tags <- pipeSlot{tag: tag, last: last}
	return nil
}

// Recv reads the next reply in order and returns it with its request's
// tag. A reply marked last releases the operation's window slot. Call
// only while frames are outstanding or a submit is coming (it blocks
// until the next reply).
func (p *Pipe) Recv() (tag any, last bool, reply txkvwire.Reply, err error) {
	var slot pipeSlot
	select {
	case slot = <-p.tags:
	case <-p.dead:
		return nil, false, txkvwire.Reply{}, ErrPipeClosed
	}
	p.rbuf, err = txkvwire.ReadFrame(p.br, p.rbuf)
	if err == nil {
		reply, err = txkvwire.DecodeReply(p.rbuf)
	}
	if err != nil {
		return slot.tag, slot.last, txkvwire.Reply{}, err
	}
	if slot.last {
		<-p.sem
	}
	return slot.tag, slot.last, reply, nil
}

// Release finishes a chained operation without a further request,
// freeing its window slot (the collector's "CAS read missed" path).
func (p *Pipe) Release() { <-p.sem }

// Close tears the pipe down, waking a submitter blocked on the window
// and a collector blocked without outstanding frames.
func (p *Pipe) Close() error {
	p.once.Do(func() { close(p.dead) })
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
