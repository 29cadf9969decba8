package txkvserver

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvwire"
)

// The stamp chain (DESIGN.md §13.2): one clock reading ends a phase and
// starts the next, and a pass of replies is timed as a whole. These
// tests pin what that must not change — the accounting identity, which
// phase a wait lands in, how fresh Stats.Requests is — and the deadlines
// that are now armed per blocking read and per pass.

// awaitRequests waits for the metrics of n requests: a pass's histograms
// are recorded after its replies are on the wire.
func awaitRequests(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var booked uint64
		for op := range srv.m.ops {
			h := srv.m.ops[op].total.Snapshot()
			booked += h.Count
		}
		if booked == n {
			return
		}
		if booked > n || time.Now().After(deadline) {
			t.Fatalf("%d requests booked, want %d", booked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWindowWaitIsQueueTime: Pipeline 2, a put held queued on its shard
// and a marker put on another shard in flight, two more puts behind them
// in the same burst. The third finds the window full and waits in answer
// for as long as the hold: that wait is its queue time. It is not its
// parse time (it was parsed before), and not the fourth's either — whose
// parse phase starts at the stamp taken after the wait, not at the
// third's. Over the whole server the totals are still the phase sums.
func TestWindowWaitIsQueueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	srv := startCoalesced(t, "swisstm", 64, Config{Pipeline: 2})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	release := holdShard(t, srv, 1)
	burst := putFrames(t, 1, 100, 1)
	if burst, err = txkvwire.AppendReqFrame(burst, txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(otherShardKey(srv, 1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(append(burst, putFrames(t, 1, 101, 2)...)); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, srv, 2)
	time.Sleep(stall)
	release()
	replies := newReplyReader(nc)
	for i := 0; i < 4; i++ {
		if reply, err := replies.next(); err != nil || reply.Err != "" {
			t.Fatalf("reply %d: %+v, %v", i, reply, err)
		}
	}
	awaitRequests(t, srv, 4)
	st := srv.m.snapshot()
	if st.QueueNs < uint64(stall)*3/4 {
		t.Fatalf("queue phases sum to %v: the %v wait for window space is in none of them", time.Duration(st.QueueNs), stall)
	}
	if st.ParseNs > uint64(stall)/4 {
		t.Fatalf("parse phases sum to %v: one absorbed the wait for window space", time.Duration(st.ParseNs))
	}
	om := &srv.m.ops[txkvwire.OpPut]
	var phaseSum uint64
	for p := range om.phase {
		h := om.phase[p].Snapshot()
		phaseSum += h.Sum
	}
	if tot := om.total.Snapshot(); tot.Sum != phaseSum || tot.Count != 4 || om.requests.Load() != 4 {
		t.Fatalf("total %d over %d requests (%d counted), phases sum to %d", tot.Sum, tot.Count, om.requests.Load(), phaseSum)
	}
}

// TestRequestsCountedBeforeReplies is the benchmark's oracle: a client
// that has read every reply of its window finds those requests in
// Stats.Requests, but for the one per connection whose booking may still
// be in progress (and the Stats request being answered). A writer that
// counted a pass after flushing it would leave up to a window uncounted.
func TestRequestsCountedBeforeReplies(t *testing.T) {
	const conns, window, rounds = 4, 16, 200
	srv := startCoalesced(t, "swisstm", 64, Config{Pipeline: window, CoalesceBatch: 32})
	ctl, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ncs := make([]net.Conn, conns)
	rds := make([]*replyReader, conns)
	for c := range ncs {
		if ncs[c], err = net.Dial("tcp", srv.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer ncs[c].Close()
		rds[c] = newReplyReader(ncs[c])
	}
	sent := uint64(0)
	for r := 0; r < rounds; r++ {
		for c, nc := range ncs {
			if _, err := nc.Write(putFrames(t, uint64(1+c), r*window, window)); err != nil {
				t.Fatal(err)
			}
			sent += window
		}
		for c := range ncs {
			for i := 0; i < window; i++ {
				if reply, err := rds[c].next(); err != nil || reply.Err != "" {
					t.Fatalf("round %d conn %d reply %d: %+v, %v", r, c, i, reply, err)
				}
			}
		}
		sent++
		reply, err := ctl.Do(txkvwire.Req{Op: txkvwire.OpStats})
		if err != nil || reply.Stats == nil {
			t.Fatalf("stats: %+v, %v", reply, err)
		}
		if got := reply.Stats.Requests; got > sent || got+conns+2 < sent {
			t.Fatalf("round %d: Stats.Requests %d with %d sent and every reply read", r, got, sent)
		}
	}
}

// TestReadDeadlinePerBlockingRead: the read deadline is armed when a read
// can block, not per frame. A 16-deep burst whose service outlasts
// ReadTimeout several times over — its first put is held queued for three
// ReadTimeouts, so every frame after the window's first 4 is read, from
// the buffer, after the deadline armed for the first has passed — is
// served whole; the connection, idle afterwards, is dropped at
// ReadTimeout.
func TestReadDeadlinePerBlockingRead(t *testing.T) {
	const burst = 16
	srv := startCoalesced(t, "swisstm", 64, Config{
		Pipeline: 4, CoalesceBatch: 64, ReadTimeout: 40 * time.Millisecond, WriteTimeout: time.Second})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	time.AfterFunc(3*srv.cfg.ReadTimeout, holdShard(t, srv, 1))
	t0 := time.Now()
	if _, err := nc.Write(putFrames(t, 1, 100, burst)); err != nil {
		t.Fatal(err)
	}
	replies := newReplyReader(nc)
	for i := 0; i < burst; i++ {
		if reply, err := replies.next(); err != nil || reply.Err != "" {
			t.Fatalf("reply %d of the burst: %+v, %v", i, reply, err)
		}
	}
	if took := time.Since(t0); took < 2*srv.cfg.ReadTimeout {
		t.Fatalf("the burst took %v: not long enough to outlast the first frame's deadline", took)
	}
	idle := time.Now()
	if _, err := replies.next(); err != io.EOF {
		t.Fatalf("idle connection: %v, want the server's close", err)
	}
	if waited := time.Since(idle); waited > 2*time.Second {
		t.Fatalf("the idle connection was dropped after %v, ReadTimeout is %v", waited, srv.cfg.ReadTimeout)
	}
}

// TestDrainBeatsReadTimeout: a connection parked on a long read deadline
// after a burst is woken by Drain's immediate one.
func TestDrainBeatsReadTimeout(t *testing.T) {
	srv := startCoalesced(t, "swisstm", 64, Config{ReadTimeout: time.Minute})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(putFrames(t, 1, 100, 8)); err != nil {
		t.Fatal(err)
	}
	replies := newReplyReader(nc)
	for i := 0; i < 8; i++ {
		if reply, err := replies.next(); err != nil || reply.Err != "" {
			t.Fatalf("reply %d: %+v, %v", i, reply, err)
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain waits for the connection's read timeout")
	}
}

// deadlineConn swallows writes and counts those made with no write
// deadline armed since the test last cleared fresh.
type deadlineConn struct {
	net.Conn
	armed, writes, stale int
	fresh                bool
}

func (d *deadlineConn) SetWriteDeadline(time.Time) error {
	d.armed++
	d.fresh = true
	return nil
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	d.writes++
	if !d.fresh {
		d.stale++
	}
	return len(p), nil
}

// TestWriteDeadlinePerSocketWrite: WriteTimeout is armed by the replies
// that reach the socket — the one that flushes a pass or a burst, the one
// that overflows the write buffer — and by no other: every socket write
// is under a deadline armed by the writeReply making it, and a reply that
// is only buffered costs no timer.
func TestWriteDeadlinePerSocketWrite(t *testing.T) {
	d := &deadlineConn{}
	c := &conn{s: &Server{cfg: Config{WriteTimeout: time.Second}}, nc: d, bw: bufio.NewWriterSize(d, 256)}
	const replies, pass = 4000, 16
	wrote := 0
	for i := 0; i < replies; i++ {
		// Most passes fit the buffer and flush once; every seventh reply is
		// long enough to overflow it on its own.
		reply := txkvwire.Reply{Op: txkvwire.OpGet, Found: true, Val: uint64(i)}
		if i%7 == 0 {
			reply = txkvwire.Reply{Op: txkvwire.OpGet, Err: strings.Repeat("x", 300), Code: txkvwire.CodeRejected}
		}
		d.fresh = false
		before := d.writes
		if !c.writeReply(reply, i%pass == pass-1) {
			t.Fatalf("reply %d: write failed", i)
		}
		if d.writes > before {
			wrote++
		}
	}
	if d.stale != 0 || d.armed != wrote {
		t.Fatalf("%d of %d socket writes under a stale deadline; %d replies reached the socket, the deadline was armed %d times",
			d.stale, d.writes, wrote, d.armed)
	}
	if wrote < replies/pass || wrote >= replies {
		t.Fatalf("%d of %d replies, in passes of %d, reached the socket", wrote, replies, pass)
	}
}
