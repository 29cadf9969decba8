// Package txkvwire defines the binary wire protocol spoken between the
// txkv network service (internal/txkvserver) and its clients
// (internal/txkvclient): length-prefixed frames carrying one request or
// one reply each, covering the store's full operation surface — point
// ops (Get/Put/Delete/CAS), the multi-key Transfer transaction, shard
// aggregates (Sum/Len), an all-or-nothing Batch that runs many sub-ops
// as one server-side transaction, and a Stats probe exposing the
// server's per-request phase timing counters (DESIGN.md §10).
//
// Framing: every message is a 4-byte little-endian payload length
// followed by the payload. Payloads are capped at MaxFrame; a frame
// announcing more is a protocol error and the connection is dropped.
// A request payload starts with a one-byte flags header (optionally
// followed by a per-request TTL) and then a one-byte opcode; a reply
// payload starts with the opcode. All integers are little-endian fixed
// width. Decoders are total: any truncated, oversized or garbage
// payload yields an error, never a panic — the fuzz targets in this
// package pin that down.
//
// Error replies are typed (DESIGN.md §13): every error carries a Code
// that tells the client whether retrying can help (Overloaded,
// Draining) or never will (Rejected, DeadlineExceeded, Internal). An
// untyped error cannot be encoded, so "the client saw an error it
// cannot classify" is a protocol violation, not a judgment call.
package txkvwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"swisstm/internal/stm"
)

// Protocol limits. Encoders refuse to produce frames outside them and
// decoders refuse to accept them, so both ends agree on what is malformed.
const (
	// MaxFrame caps a payload's size in bytes.
	MaxFrame = 1 << 20
	// MaxBatch caps the sub-requests in one batch.
	MaxBatch = 256
	// MaxTransferKeys caps the keys of one transfer.
	MaxTransferKeys = 64
	// MaxErrLen caps an error reply's message in bytes.
	MaxErrLen = 1024
	// MaxTTL caps a request's deadline TTL (the wire carries whole
	// microseconds in a uint32; anything longer is not a deadline).
	MaxTTL = time.Duration(1<<32-1) * time.Microsecond
	// MaxFeedEvents caps the change-feed events in one Subscribe reply
	// frame; a busy feed streams as many frames as it needs.
	MaxFeedEvents = 512
)

// Request payload header flags. Unknown bits are a protocol error, so
// the header can grow without silently misparsing old decoders.
const reqFlagTTL = 1 << 0

// Code classifies an error reply (DESIGN.md §13). The zero value
// CodeNone marks a non-error reply and is invalid on the wire: a
// conforming encoder refuses to emit an error reply without a code.
type Code uint8

const (
	// CodeNone is the zero value of a success reply, never sent in an
	// error reply.
	CodeNone Code = iota
	// CodeRejected is permanent: the request itself is invalid (reserved
	// key, bad shard, malformed payload) or its conditional failed
	// (batch abort). Retrying the same request returns the same answer.
	CodeRejected
	// CodeOverloaded is retryable: admission control shed the request —
	// the queue was full or the bounded queue wait expired — before any
	// transaction ran. Retry after backing off.
	CodeOverloaded
	// CodeDeadlineExceeded is permanent for this request: its deadline
	// expired before a pool thread picked it up. The time budget is the
	// caller's; once spent, re-sending the same budget cannot help.
	CodeDeadlineExceeded
	// CodeDraining is retryable (elsewhere): the server is shutting down
	// gracefully and stopped admitting work. No transaction ran.
	CodeDraining
	// CodeInternal is permanent: a server-side failure (panic out of a
	// transaction body, commit-log append failure, unencodable reply).
	// The op may or may not have applied; it was not acknowledged.
	CodeInternal

	codeMax
)

// Retryable reports whether the error is worth retrying: the server
// shed the request before executing it and expects to recover.
func (c Code) Retryable() bool {
	return c == CodeOverloaded || c == CodeDraining
}

// String names the code for error messages and metric labels.
func (c Code) String() string {
	switch c {
	case CodeNone:
		return "none"
	case CodeRejected:
		return "rejected"
	case CodeOverloaded:
		return "overloaded"
	case CodeDeadlineExceeded:
		return "deadline_exceeded"
	case CodeDraining:
		return "draining"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// Op identifies a request (and echoes in its reply).
type Op uint8

const (
	// OpInvalid is never sent as a request; replies use it when the
	// request's opcode could not even be decoded.
	OpInvalid Op = iota
	// OpGet reads one key. Reply: Found + Val.
	OpGet
	// OpPut writes Key → Val. Reply: OK (true when newly inserted).
	OpPut
	// OpDelete removes Key. Reply: OK (true when it existed).
	OpDelete
	// OpCAS swaps Key's value Old → Val when it currently equals Old.
	// Reply: OK (true when swapped).
	OpCAS
	// OpTransfer moves Amount from Keys[0] to each of Keys[1:] in one
	// transaction. Reply: OK (true when the transfer applied).
	OpTransfer
	// OpSum sums the values of one shard (Shard ≥ 0) or the whole store
	// (Shard == -1). Reply: Val.
	OpSum
	// OpLen counts the stored keys. Reply: Val.
	OpLen
	// OpBatch runs Sub as one all-or-nothing transaction: a failing
	// conditional sub-op (CAS miss, insufficient transfer, delete of an
	// absent key) rolls the whole batch back and the reply is an error
	// naming the failing index. Reply: Sub.
	OpBatch
	// OpStats returns the server's cumulative request/phase counters.
	// Reply: Stats.
	OpStats
	// OpSubscribe tails one shard's change feed (Shard, From). The
	// server acknowledges with an empty-Events reply, then streams one
	// reply frame per event batch on the same connection until the
	// subscriber disconnects or the server drains (a final error frame
	// with CodeDraining). No further requests are read from a
	// subscribed connection.
	OpSubscribe

	opMax
)

// String names the opcode for error messages and logs.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpCAS:
		return "cas"
	case OpTransfer:
		return "transfer"
	case OpSum:
		return "sum"
	case OpLen:
		return "len"
	case OpBatch:
		return "batch"
	case OpStats:
		return "stats"
	case OpSubscribe:
		return "subscribe"
	case OpInvalid:
		return "invalid"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Req is one decoded request. Only the fields of its Op are meaningful.
type Req struct {
	Op     Op
	Key    uint64   // Get, Put, Delete, CAS
	Val    uint64   // Put value, CAS new value
	Old    uint64   // CAS expected value
	Amount uint64   // Transfer
	Keys   []uint64 // Transfer: source + destinations
	Shard  int32    // Sum: shard index, -1 = whole store; Subscribe: shard to tail
	Sub    []Req    // Batch sub-requests (no nesting)
	From   uint64   // Subscribe: first feed sequence wanted (0 = from now)

	// TTL is the request's remaining deadline budget when it left the
	// client (0 = none). The server anchors it at decode time: a request
	// still queued for a pool thread when arrival+TTL passes is dropped
	// with CodeDeadlineExceeded instead of executing late. Microsecond
	// wire resolution; top-level requests only (not batch sub-requests).
	TTL time.Duration
}

// Reply is one decoded reply. Err != "" marks an error reply; Code then
// classifies it (always a valid non-None code on the wire) and all
// other fields are zero.
type Reply struct {
	Op    Op
	Err   string
	Code  Code    // error class; CodeNone iff Err == ""
	Found bool    // Get
	Val   uint64  // Get value, Sum, Len
	OK    bool    // Put, Delete, CAS, Transfer
	Sub   []Reply // Batch
	Stats *Stats  // Stats
	// Events carries a Subscribe stream frame's change-feed batch. The
	// subscription ack frame has zero events; stream frames carry
	// 1..MaxFeedEvents each.
	Events []FeedEvent
}

// FeedEvent is one committed mutation in a shard's change feed
// (DESIGN.md §14.4): a write with its post-image value, or a delete.
// Seq is the shard-local commit sequence number, contiguous from 1.
type FeedEvent struct {
	Seq uint64
	Del bool
	Key uint64
	Val uint64 // zero for deletes
}

// Stats is the server's cumulative counter snapshot: flat per-request
// phase nanosecond sums (divide by Requests for means) plus the engine's
// commit/abort totals across the server's thread pool, the raw
// abort-cause taxonomy counters (DESIGN.md §11; they partition Aborts,
// so clients may diff them like every other cumulative field), and the
// server-lifetime request-latency percentiles. The percentile fields are
// point-in-time quantile reads of the server's whole-life latency
// histogram — NOT cumulative, so Sub does not diff them; they are a load
// run's own only when the server was started for that run. The json names
// (/statz prints them) are lower snake_case, a results column's name where
// one holds the same counter.
type Stats struct {
	Requests uint64 `json:"requests"`  // requests fully served (reply flushed)
	ParseNs  uint64 `json:"parse_ns"`  // frame decode
	QueueNs  uint64 `json:"queue_ns"`  // wait for an engine thread
	TxnNs    uint64 `json:"txn_ns"`    // transaction body (final attempt)
	CommitNs uint64 `json:"commit_ns"` // begin/commit/retry remainder of the atomic call
	ReplyNs  uint64 `json:"reply_ns"`  // reply encode + write + flush
	WalNs    uint64 `json:"wal_ns"`    // commit-log append (publish → durable; 0 with the WAL off)
	Commits  uint64 `json:"commits"`   // engine transactions committed
	Aborts   uint64 `json:"aborts"`    // engine transactions aborted

	// Durable commit log counters (DESIGN.md §12; all zero with the WAL
	// off). Cumulative like the phase sums.
	WalFrames    uint64 `json:"wal_frames"`           // redo frames appended
	WalBytes     uint64 `json:"wal_bytes"`            // frame bytes appended
	WalRecovered uint64 `json:"wal_recovered_frames"` // frames replayed by recovery at server start

	// The engine's abort causes (DESIGN.md §11); Sum() equals Aborts.
	stm.AbortCauses

	// Server-lifetime request latency percentiles (ns, histogram upper
	// bounds, ≤12.5% relative error). Not cumulative: do not diff.
	SrvP50Ns  uint64 `json:"srv_p50_ns"`
	SrvP99Ns  uint64 `json:"srv_p99_ns"`
	SrvP999Ns uint64 `json:"srv_p999_ns"`

	// Overload-protection counters (DESIGN.md §13). Cumulative.
	Sheds            uint64 `json:"sheds"`             // requests shed by admission control (Overloaded + Draining replies)
	DeadlineExceeded uint64 `json:"deadline_exceeded"` // requests dropped because their deadline expired pre-execution
	ConnsRejected    uint64 `json:"conns_rejected"`    // connections refused at the MaxConns limit

	// Commit-coalescing and change-feed counters (DESIGN.md §14; zero
	// with coalescing off, except FeedEvents which every mutating path
	// publishes). Cumulative.
	CoalesceBatches uint64 `json:"coalesce_batches"` // batch flushes executed (one engine txn each)
	CoalesceItems   uint64 `json:"coalesce_items"`   // single-key ops executed inside flushes
	FeedEvents      uint64 `json:"feed_events"`      // change-feed events published across all shards
	WalFsyncs       uint64 `json:"wal_fsyncs"`       // commit-log fsync batches (group mode)
}

// fields lists every field in wire order, for the reply codec and Sub
// (the codec test holds the list to the struct).
func (s *Stats) fields() []*uint64 {
	return []*uint64{
		&s.Requests, &s.ParseNs, &s.QueueNs, &s.TxnNs,
		&s.CommitNs, &s.ReplyNs, &s.Commits, &s.Aborts,
		&s.AbortsWW, &s.AbortsValidRead, &s.AbortsValidCommit, &s.AbortsLocked,
		&s.AbortsKilled, &s.AbortsExplicit, &s.AbortsUser, &s.LockAcquireFail,
		&s.SrvP50Ns, &s.SrvP99Ns, &s.SrvP999Ns,
		&s.WalNs, &s.WalFrames, &s.WalBytes, &s.WalRecovered,
		&s.Sheds, &s.DeadlineExceeded, &s.ConnsRejected,
		&s.CoalesceBatches, &s.CoalesceItems, &s.FeedEvents, &s.WalFsyncs,
	}
}

// Sub returns the counters accumulated since the snapshot prev. The
// percentiles and WalRecovered (set once, by the recovery scan at server
// start) are lifetime values, not sums: they keep s's.
func (s Stats) Sub(prev Stats) Stats {
	d, was := s, prev.fields()
	for i, p := range d.fields() {
		*p -= *was[i]
	}
	d.SrvP50Ns, d.SrvP99Ns, d.SrvP999Ns, d.WalRecovered = s.SrvP50Ns, s.SrvP99Ns, s.SrvP999Ns, s.WalRecovered
	return d
}

// ErrFrameTooLarge reports a frame length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("txkvwire: frame exceeds MaxFrame")

// ---------------------------------------------------------------------------
// Framing

// WriteFrame writes payload as one length-prefixed frame, in two writes
// and with one allocation (the prefix escapes through w). The per-request
// paths build whole frames with AppendReqFrame and AppendReplyFrame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendReqFrame appends r as one complete frame — length prefix and
// payload contiguous — so a client can put a request on the wire with a
// single Write (one syscall, one segment under TCP_NODELAY) instead of
// WriteFrame's two. On error it returns dst unchanged.
func AppendReqFrame(dst []byte, r Req) ([]byte, error) {
	out, err := AppendReq(append(dst, 0, 0, 0, 0), r)
	return closeFrame(dst, out, err)
}

// AppendReplyFrame is AppendReqFrame's twin for replies: the server
// buffers a reply with one Write and no prefix of its own to allocate.
func AppendReplyFrame(dst []byte, r Reply) ([]byte, error) {
	out, err := AppendReply(append(dst, 0, 0, 0, 0), r)
	return closeFrame(dst, out, err)
}

// closeFrame fills in the length prefix reserved at len(dst) of out, or
// gives dst back unchanged when the payload failed to encode or is too
// long to frame.
func closeFrame(dst, out []byte, err error) ([]byte, error) {
	if err != nil {
		return dst, err
	}
	n := len(out) - len(dst) - 4
	if n > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(out[len(dst):], uint32(n))
	return out, nil
}

// ReadFrame reads one length-prefixed frame, reusing buf when it is
// large enough — for the prefix too, so a caller that passes the returned
// slice back in reads without allocating. A length prefix above MaxFrame
// returns ErrFrameTooLarge without reading the payload (the caller must
// drop the connection: the stream is no longer frame-aligned).
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 64)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// FrameBuffered reports whether br already holds a complete frame, so the
// next ReadFrame will not touch the socket. Both ends batch on it: the
// server puts the reply to a buffered request in the same write as the
// current one, the pipelined client flushes its own requests only when no
// reply is buffered. A partial frame does not count: a peer stalled
// mid-frame must not stall what it is owed.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint32(n-4) >= binary.LittleEndian.Uint32(hdr)
}

// ---------------------------------------------------------------------------
// Request encoding

// AppendReq appends r's payload encoding to dst. It validates the
// request against the protocol limits so a conforming encoder can never
// emit a frame a conforming decoder rejects. The payload leads with a
// one-byte flags header carrying the optional TTL.
func AppendReq(dst []byte, r Req) ([]byte, error) {
	if r.TTL < 0 || r.TTL > MaxTTL {
		return nil, fmt.Errorf("txkvwire: request TTL %v out of range (0..%v)", r.TTL, MaxTTL)
	}
	if r.TTL > 0 {
		dst = append(dst, reqFlagTTL)
		us := uint32((r.TTL + time.Microsecond - 1) / time.Microsecond)
		dst = binary.LittleEndian.AppendUint32(dst, us)
	} else {
		dst = append(dst, 0)
	}
	return appendReq(dst, r, true)
}

func appendReq(dst []byte, r Req, batchOK bool) ([]byte, error) {
	if !batchOK && r.TTL != 0 {
		// The deadline belongs to the whole request; a per-sub-op TTL
		// would be meaningless inside one atomic batch.
		return nil, errors.New("txkvwire: TTL on a batch sub-request")
	}
	dst = append(dst, byte(r.Op))
	switch r.Op {
	case OpGet, OpDelete:
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	case OpPut:
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	case OpCAS:
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, r.Old)
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	case OpTransfer:
		if len(r.Keys) < 2 || len(r.Keys) > MaxTransferKeys {
			return nil, fmt.Errorf("txkvwire: transfer with %d keys (want 2..%d)", len(r.Keys), MaxTransferKeys)
		}
		dst = binary.LittleEndian.AppendUint64(dst, r.Amount)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Keys)))
		for _, k := range r.Keys {
			dst = binary.LittleEndian.AppendUint64(dst, k)
		}
	case OpSum:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Shard))
	case OpLen, OpStats:
		// opcode only
	case OpSubscribe:
		if !batchOK {
			return nil, errors.New("txkvwire: subscribe inside a batch")
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Shard))
		dst = binary.LittleEndian.AppendUint64(dst, r.From)
	case OpBatch:
		if !batchOK {
			return nil, errors.New("txkvwire: nested batch")
		}
		if len(r.Sub) == 0 || len(r.Sub) > MaxBatch {
			return nil, fmt.Errorf("txkvwire: batch with %d sub-requests (want 1..%d)", len(r.Sub), MaxBatch)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Sub)))
		for _, sub := range r.Sub {
			if sub.Op == OpStats || sub.Op == OpSubscribe {
				return nil, fmt.Errorf("txkvwire: %v inside a batch", sub.Op)
			}
			var err error
			if dst, err = appendReq(dst, sub, false); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("txkvwire: unknown request op %d", r.Op)
	}
	if len(dst) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return dst, nil
}

// DecodeReq decodes one request payload. The whole payload must be
// consumed: trailing bytes are a protocol error.
func DecodeReq(payload []byte) (Req, error) { return DecodeReqInto(payload, nil) }

// DecodeReqInto is DecodeReq that decodes a Batch's sub-requests into
// subs, overwriting its elements, when its capacity holds them all; the
// returned Req's Sub then shares subs' array. A server reading one
// request at a time passes the largest Sub it has decoded back in, so a
// Batch costs no allocation once the connection has sent one as large.
func DecodeReqInto(payload []byte, subs []Req) (Req, error) {
	c := cursor{b: payload, subs: subs}
	flags := c.u8()
	if c.err == nil && flags&^byte(reqFlagTTL) != 0 {
		c.fail(fmt.Errorf("txkvwire: unknown request flags %#x", flags))
	}
	var ttl time.Duration
	if c.err == nil && flags&reqFlagTTL != 0 {
		us := c.u32()
		if c.err == nil && us == 0 {
			c.fail(errors.New("txkvwire: TTL flag with zero TTL"))
		}
		ttl = time.Duration(us) * time.Microsecond
	}
	r := decodeReq(&c, true)
	r.TTL = ttl
	if c.err != nil {
		return Req{}, c.err
	}
	if c.off != len(payload) {
		return Req{}, fmt.Errorf("txkvwire: %d trailing bytes after request", len(payload)-c.off)
	}
	return r, nil
}

func decodeReq(c *cursor, batchOK bool) Req {
	r := Req{Op: Op(c.u8())}
	switch r.Op {
	case OpGet, OpDelete:
		r.Key = c.u64()
	case OpPut:
		r.Key, r.Val = c.u64(), c.u64()
	case OpCAS:
		r.Key, r.Old, r.Val = c.u64(), c.u64(), c.u64()
	case OpTransfer:
		r.Amount = c.u64()
		n := int(c.u16())
		if c.err == nil && (n < 2 || n > MaxTransferKeys) {
			c.fail(fmt.Errorf("txkvwire: transfer with %d keys (want 2..%d)", n, MaxTransferKeys))
			return r
		}
		r.Keys = make([]uint64, 0, c.room(n, 8))
		for i := 0; i < n && c.err == nil; i++ {
			r.Keys = append(r.Keys, c.u64())
		}
	case OpSum:
		r.Shard = int32(c.u32())
	case OpLen, OpStats:
		// opcode only
	case OpSubscribe:
		if !batchOK {
			c.fail(errors.New("txkvwire: subscribe inside a batch"))
			return r
		}
		r.Shard = int32(c.u32())
		r.From = c.u64()
	case OpBatch:
		if !batchOK {
			c.fail(errors.New("txkvwire: nested batch"))
			return r
		}
		n := int(c.u16())
		if c.err == nil && (n < 1 || n > MaxBatch) {
			c.fail(fmt.Errorf("txkvwire: batch with %d sub-requests (want 1..%d)", n, MaxBatch))
			return r
		}
		if r.Sub = c.subs[:0]; cap(r.Sub) < n {
			r.Sub = make([]Req, 0, c.room(n, 1)) // an opcode-only sub-request is one byte
		}
		for i := 0; i < n && c.err == nil; i++ {
			sub := decodeReq(c, false)
			if sub.Op == OpStats || sub.Op == OpSubscribe {
				c.fail(fmt.Errorf("txkvwire: %v inside a batch", sub.Op))
				return r
			}
			r.Sub = append(r.Sub, sub)
		}
	default:
		c.fail(fmt.Errorf("txkvwire: unknown request op %d", r.Op))
	}
	return r
}

// ---------------------------------------------------------------------------
// Reply encoding

// AppendReply appends r's payload encoding to dst. Error replies carry
// only the opcode (OpInvalid allowed there), the error code and the
// message; encoding an error without a valid code is refused, so an
// untyped error can never reach the wire.
func AppendReply(dst []byte, r Reply) ([]byte, error) {
	return appendReply(dst, r, true)
}

func appendReply(dst []byte, r Reply, batchOK bool) ([]byte, error) {
	dst = append(dst, byte(r.Op))
	if r.Err != "" {
		if r.Code == CodeNone || r.Code >= codeMax {
			return nil, fmt.Errorf("txkvwire: error reply without a valid code (%d): %q", r.Code, r.Err)
		}
		msg := r.Err
		if len(msg) > MaxErrLen {
			msg = msg[:MaxErrLen]
		}
		dst = append(dst, 1, byte(r.Code))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
		dst = append(dst, msg...)
		return dst, nil
	}
	if r.Code != CodeNone {
		return nil, fmt.Errorf("txkvwire: code %v on a success reply", r.Code)
	}
	dst = append(dst, 0)
	switch r.Op {
	case OpGet:
		dst = appendBool(dst, r.Found)
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	case OpPut, OpDelete, OpCAS, OpTransfer:
		dst = appendBool(dst, r.OK)
	case OpSum, OpLen:
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	case OpBatch:
		if !batchOK {
			return nil, errors.New("txkvwire: nested batch reply")
		}
		if len(r.Sub) == 0 || len(r.Sub) > MaxBatch {
			return nil, fmt.Errorf("txkvwire: batch reply with %d sub-replies (want 1..%d)", len(r.Sub), MaxBatch)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Sub)))
		for _, sub := range r.Sub {
			var err error
			if dst, err = appendReply(dst, sub, false); err != nil {
				return nil, err
			}
		}
	case OpStats:
		if r.Stats == nil {
			return nil, errors.New("txkvwire: stats reply without stats")
		}
		for _, p := range r.Stats.fields() {
			dst = binary.LittleEndian.AppendUint64(dst, *p)
		}
	case OpSubscribe:
		if len(r.Events) > MaxFeedEvents {
			return nil, fmt.Errorf("txkvwire: subscribe reply with %d events (max %d)", len(r.Events), MaxFeedEvents)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Events)))
		for _, e := range r.Events {
			dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
			dst = appendBool(dst, e.Del)
			dst = binary.LittleEndian.AppendUint64(dst, e.Key)
			dst = binary.LittleEndian.AppendUint64(dst, e.Val)
		}
	default:
		return nil, fmt.Errorf("txkvwire: unknown reply op %d", r.Op)
	}
	if len(dst) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return dst, nil
}

// DecodeReply decodes one reply payload; the whole payload must be
// consumed.
func DecodeReply(payload []byte) (Reply, error) { return DecodeReplyInto(payload, nil) }

// DecodeReplyInto is DecodeReply that decodes a Batch's sub-replies into
// subs, as DecodeReqInto does its sub-requests: a client that passes the
// largest Sub it has decoded back in decodes a Batch reply without
// allocating once it has had one as large.
func DecodeReplyInto(payload []byte, subs []Reply) (Reply, error) {
	c := cursor{b: payload, replies: subs}
	r := decodeReply(&c, true)
	if c.err != nil {
		return Reply{}, c.err
	}
	if c.off != len(payload) {
		return Reply{}, fmt.Errorf("txkvwire: %d trailing bytes after reply", len(payload)-c.off)
	}
	return r, nil
}

func decodeReply(c *cursor, batchOK bool) Reply {
	r := Reply{Op: Op(c.u8())}
	status := c.u8()
	if c.err != nil {
		return r
	}
	switch status {
	case 1:
		code := Code(c.u8())
		if c.err == nil && (code == CodeNone || code >= codeMax) {
			c.fail(fmt.Errorf("txkvwire: error reply with unknown code %d", code))
			return r
		}
		n := int(c.u16())
		if c.err == nil && (n < 1 || n > MaxErrLen) {
			c.fail(fmt.Errorf("txkvwire: error reply with %d-byte message (want 1..%d)", n, MaxErrLen))
			return r
		}
		r.Code = code
		r.Err = string(c.bytes(n))
		return r
	case 0:
		// fall through to the per-op body
	default:
		c.fail(fmt.Errorf("txkvwire: bad reply status %d", status))
		return r
	}
	switch r.Op {
	case OpGet:
		r.Found = c.bool()
		r.Val = c.u64()
	case OpPut, OpDelete, OpCAS, OpTransfer:
		r.OK = c.bool()
	case OpSum, OpLen:
		r.Val = c.u64()
	case OpBatch:
		if !batchOK {
			c.fail(errors.New("txkvwire: nested batch reply"))
			return r
		}
		n := int(c.u16())
		if c.err == nil && (n < 1 || n > MaxBatch) {
			c.fail(fmt.Errorf("txkvwire: batch reply with %d sub-replies (want 1..%d)", n, MaxBatch))
			return r
		}
		if r.Sub = c.replies[:0]; cap(r.Sub) < n {
			r.Sub = make([]Reply, 0, c.room(n, 3)) // op, status, OK
		}
		for i := 0; i < n && c.err == nil; i++ {
			r.Sub = append(r.Sub, decodeReply(c, false))
		}
	case OpStats:
		r.Stats = &Stats{}
		for _, p := range r.Stats.fields() {
			*p = c.u64()
		}
	case OpSubscribe:
		n := int(c.u16())
		if c.err == nil && n > MaxFeedEvents {
			c.fail(fmt.Errorf("txkvwire: subscribe reply with %d events (max %d)", n, MaxFeedEvents))
			return r
		}
		if n > 0 { // an ack's Events stays nil
			r.Events = make([]FeedEvent, 0, c.room(n, 25)) // seq, del, key, val
		}
		for i := 0; i < n && c.err == nil; i++ {
			var e FeedEvent
			e.Seq = c.u64()
			e.Del = c.bool()
			e.Key = c.u64()
			e.Val = c.u64()
			r.Events = append(r.Events, e)
		}
	default:
		c.fail(fmt.Errorf("txkvwire: unknown reply op %d", r.Op))
	}
	return r
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// ---------------------------------------------------------------------------
// Bounds-checked decode cursor. Every accessor records the first error
// and returns zero values afterwards, so decoders are straight-line code
// with one error check at the end — and cannot index out of bounds.

type cursor struct {
	b       []byte
	off     int
	err     error
	subs    []Req   // DecodeReqInto's buffer for a Batch's sub-requests
	replies []Reply // DecodeReplyInto's buffer for a Batch's sub-replies
}

// room caps the capacity of a slice decoded from an announced count of
// n entries of at least size bytes each at the entries the rest of the
// payload can hold: each decoded slice is made once, and a truncated
// frame announcing the maximum allocates in proportion to its bytes.
func (c *cursor) room(n, size int) int {
	return min(n, (len(c.b)-c.off)/size)
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if len(c.b)-c.off < n {
		c.fail(fmt.Errorf("txkvwire: truncated payload (need %d bytes at offset %d of %d)", n, c.off, len(c.b)))
		return false
	}
	return true
}

func (c *cursor) u8() byte {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) bool() bool {
	v := c.u8()
	if c.err == nil && v > 1 {
		c.fail(fmt.Errorf("txkvwire: bad bool byte %d", v))
	}
	return v == 1
}

func (c *cursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) bytes(n int) []byte {
	if n < 0 || !c.need(n) {
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}
