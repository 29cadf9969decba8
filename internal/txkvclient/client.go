// Package txkvclient is the client side of the txkv network service:
// a thin synchronous connection type speaking the txkvwire protocol,
// plus the load generator (loadgen.go) that drives the YCSB-style
// workload mixes over real TCP connections in closed-loop and
// open-loop modes and folds the measurements into the results schema.
package txkvclient

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"time"

	"swisstm/internal/txkvwire"
)

// Options tunes a Client's resilience. The zero value is the strict
// fail-fast client: no deadlines, no retries.
type Options struct {
	// Timeout bounds each request round trip (connect + write + read).
	// 0 = wait forever.
	Timeout time.Duration
	// MaxRetries is how many times one request may be re-issued, with
	// bounded exponential backoff between attempts. Two distinct
	// failures trigger a retry (DESIGN.md §13):
	//
	//   - a reply with a retryable code (Overloaded, Draining): the
	//     server shed the request BEFORE executing it, so re-issuing is
	//     safe for every op, mutations included;
	//   - a transport failure (connection reset, timeout, torn frame):
	//     the server may have executed the request and only the reply
	//     was lost, so re-issuing a mutation risks applying it twice —
	//     mutations are retried only with RetryMutations set, reads
	//     always.
	//
	// Permanent codes (Rejected, DeadlineExceeded, Internal) are never
	// retried. 0 = fail fast.
	MaxRetries int
	// RetryMutations opts mutating requests (put/delete/cas/transfer
	// and batches containing them) into transport-failure retry,
	// accepting at-least-once semantics. Off by default: a lost reply
	// must not silently re-apply a transfer.
	RetryMutations bool
	// BackoffBase/BackoffMax bound the backoff: attempt k sleeps a
	// uniformly jittered duration in (0, min(BackoffBase<<k,
	// BackoffMax)]. Defaults 1ms and 100ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Budget is the default per-request deadline budget: each Do gets
	// Budget of wall-clock time across ALL its attempts, and every
	// attempt advertises the remaining budget to the server as the wire
	// TTL, so the server stops queueing work the client has already
	// given up on. A request's own TTL, when set, overrides Budget.
	// 0 = no deadline.
	Budget time.Duration
}

func (o *Options) fill() {
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 100 * time.Millisecond
	}
}

// Client is one synchronous connection to a txkv server. It is not safe
// for concurrent use; the load generator opens one Client per worker.
type Client struct {
	addr string
	opts Options
	conn net.Conn
	br   *bufio.Reader
	rbuf []byte
	wbuf []byte
	subs []txkvwire.Reply // the largest Batch reply's Sub decoded so far

	// Retries counts re-issued request attempts (shed replies and
	// transport failures alike); Reconnects counts successful re-dials;
	// ShedRetries is the subset of Retries triggered by a typed
	// retryable code. All zero for a fail-fast client.
	Retries     uint64
	Reconnects  uint64
	ShedRetries uint64
}

// Dial connects to a txkv server with fail-fast semantics.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects with the given resilience options.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts.fill()
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, opts: opts, conn: conn, br: bufio.NewReader(conn)}, nil
}

// DialRetry dials with retries until timeout elapses — the readiness
// probe load drivers use right after launching a server.
func DialRetry(addr string, timeout time.Duration) (*Client, error) {
	return DialRetryOptions(addr, timeout, Options{})
}

// DialRetryOptions is DialRetry with resilience options on the
// resulting client.
func DialRetryOptions(addr string, timeout time.Duration, opts Options) (*Client, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := DialOptions(addr, opts)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("txkvclient: server at %s not ready after %v: %w", addr, timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and waits for its reply. An error reply from the
// server is returned as the reply with Err set (and a typed Code), not
// as a Go error — the Go error path is reserved for transport and
// protocol failures. With Options.MaxRetries set,
// retryable shed replies and (for reads, or with RetryMutations) lost
// connections re-issue the request with full-jitter backoff; the
// remaining deadline budget rides along as the wire TTL. A Batch reply's
// Sub is valid until the next call on c: the next Batch reply is decoded
// into the same array.
func (c *Client) Do(req txkvwire.Req) (txkvwire.Reply, error) {
	// The deadline covers the whole Do — every attempt plus the
	// backoffs between them. A request-level TTL overrides the
	// configured default budget.
	var deadline time.Time
	if req.TTL > 0 {
		deadline = time.Now().Add(req.TTL)
	} else if c.opts.Budget > 0 {
		req.TTL = c.opts.Budget
		deadline = time.Now().Add(c.opts.Budget)
	}
	transportOK := c.opts.RetryMutations || !mutatingReq(req)

	var reply txkvwire.Reply
	var err error
	for attempt := 0; ; attempt++ {
		c.wbuf, err = txkvwire.AppendReqFrame(c.wbuf[:0], req)
		if err != nil {
			return txkvwire.Reply{}, err // malformed request: retrying can't help
		}
		reply, err = c.roundTrip(deadline)
		if err == nil {
			if !reply.Code.Retryable() || attempt >= c.opts.MaxRetries {
				return reply, nil
			}
			c.ShedRetries++
		} else {
			if attempt >= c.opts.MaxRetries || !transportOK {
				return reply, err
			}
		}
		c.Retries++
		c.sleepBackoff(attempt, deadline)
		if !deadline.IsZero() {
			rem := time.Until(deadline)
			if rem <= 0 {
				// Budget exhausted: surface whatever the last attempt got.
				return reply, err
			}
			req.TTL = rem
		}
		if err != nil {
			// Transport failures poison the connection; shed replies
			// arrive on a healthy one, so only the former re-dials.
			if rerr := c.redial(); rerr != nil {
				err = rerr
			}
		}
	}
}

// mutatingReq reports whether a request (or any batch sub-request)
// writes the store — the ops whose transport-failure retry is gated by
// Options.RetryMutations.
func mutatingReq(req txkvwire.Req) bool {
	switch req.Op {
	case txkvwire.OpPut, txkvwire.OpDelete, txkvwire.OpCAS, txkvwire.OpTransfer:
		return true
	case txkvwire.OpBatch:
		for i := range req.Sub {
			if mutatingReq(req.Sub[i]) {
				return true
			}
		}
	}
	return false
}

// roundTrip sends the request frame in c.wbuf with one Write and reads
// its reply, under the tighter of the per-attempt Timeout and the
// request's overall deadline.
func (c *Client) roundTrip(deadline time.Time) (txkvwire.Reply, error) {
	var connDL time.Time
	if c.opts.Timeout > 0 {
		connDL = time.Now().Add(c.opts.Timeout)
	}
	if !deadline.IsZero() && (connDL.IsZero() || deadline.Before(connDL)) {
		connDL = deadline
	}
	if !connDL.IsZero() {
		c.conn.SetDeadline(connDL)
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return txkvwire.Reply{}, err
	}
	var err error
	c.rbuf, err = txkvwire.ReadFrame(c.br, c.rbuf)
	if err != nil {
		return txkvwire.Reply{}, err
	}
	reply, err := txkvwire.DecodeReplyInto(c.rbuf, c.subs)
	if cap(reply.Sub) > cap(c.subs) {
		c.subs = reply.Sub
	}
	return reply, err
}

// redial replaces the connection after a transport failure.
func (c *Client) redial() error {
	c.conn.Close()
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.Timeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	c.Reconnects++
	return nil
}

// sleepBackoff sleeps the attempt's jittered backoff: full jitter over
// an exponentially growing, capped window (so a burst of failing
// clients does not reconnect in lockstep), never past the request's
// deadline.
func (c *Client) sleepBackoff(attempt int, deadline time.Time) {
	max := c.opts.BackoffMax
	if d := c.opts.BackoffBase << uint(attempt); d < max && d > 0 {
		max = d
	}
	d := time.Duration(1 + rand.Int63n(int64(max)))
	if !deadline.IsZero() {
		if rem := time.Until(deadline); rem < d {
			d = rem
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// do is Do plus promotion of server-side error replies to Go errors,
// for the typed convenience methods where an error reply is unexpected.
func (c *Client) do(req txkvwire.Req) (txkvwire.Reply, error) {
	reply, err := c.Do(req)
	if err != nil {
		return reply, err
	}
	if reply.Err != "" {
		return reply, fmt.Errorf("txkvclient: server error: %s", reply.Err)
	}
	return reply, nil
}

// Get reads one key.
func (c *Client) Get(key uint64) (val uint64, found bool, err error) {
	reply, err := c.do(txkvwire.Req{Op: txkvwire.OpGet, Key: key})
	return reply.Val, reply.Found, err
}

// Put writes key → val, reporting whether the key was newly inserted.
func (c *Client) Put(key, val uint64) (inserted bool, err error) {
	reply, err := c.do(txkvwire.Req{Op: txkvwire.OpPut, Key: key, Val: val})
	return reply.OK, err
}

// Delete removes key, reporting whether it existed.
func (c *Client) Delete(key uint64) (existed bool, err error) {
	reply, err := c.do(txkvwire.Req{Op: txkvwire.OpDelete, Key: key})
	return reply.OK, err
}

// CAS swaps key's value old → new when it currently equals old.
func (c *Client) CAS(key, old, new uint64) (swapped bool, err error) {
	reply, err := c.do(txkvwire.Req{Op: txkvwire.OpCAS, Key: key, Old: old, Val: new})
	return reply.OK, err
}

// Transfer atomically moves amount from keys[0] to each of keys[1:].
func (c *Client) Transfer(keys []uint64, amount uint64) (ok bool, err error) {
	reply, err := c.do(txkvwire.Req{Op: txkvwire.OpTransfer, Keys: keys, Amount: amount})
	return reply.OK, err
}

// Sum sums one shard's values, or the whole store for shard == -1.
func (c *Client) Sum(shard int) (uint64, error) {
	reply, err := c.do(txkvwire.Req{Op: txkvwire.OpSum, Shard: int32(shard)})
	return reply.Val, err
}

// Len counts the stored keys.
func (c *Client) Len() (uint64, error) {
	reply, err := c.do(txkvwire.Req{Op: txkvwire.OpLen})
	return reply.Val, err
}

// Stats fetches the server's cumulative request/phase counters.
func (c *Client) Stats() (txkvwire.Stats, error) {
	reply, err := c.do(txkvwire.Req{Op: txkvwire.OpStats})
	if err != nil {
		return txkvwire.Stats{}, err
	}
	if reply.Stats == nil {
		return txkvwire.Stats{}, fmt.Errorf("txkvclient: stats reply without stats")
	}
	return *reply.Stats, nil
}
