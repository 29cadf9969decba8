package txkvwire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// FuzzDecodeReq asserts the request decoder is total: arbitrary bytes
// either decode or error, and whatever decodes must re-encode and
// decode to the same value (a decoded request is always re-encodable —
// the decoder enforces the same limits as the encoder).
func FuzzDecodeReq(f *testing.F) {
	seed := []Req{
		{Op: OpGet, Key: 42},
		{Op: OpPut, Key: 1, Val: 2},
		{Op: OpDelete, Key: 3},
		{Op: OpCAS, Key: 4, Old: 5, Val: 6},
		{Op: OpTransfer, Amount: 1, Keys: []uint64{7, 8, 9}},
		{Op: OpSum, Shard: -1},
		{Op: OpLen},
		{Op: OpStats},
		{Op: OpBatch, Sub: []Req{{Op: OpPut, Key: 1, Val: 2}, {Op: OpGet, Key: 1}}},
		// Deadline header variants (DESIGN.md §13).
		{Op: OpGet, Key: 42, TTL: 50 * time.Millisecond},
		{Op: OpPut, Key: 1, Val: 2, TTL: time.Microsecond},
		{Op: OpBatch, Sub: []Req{{Op: OpLen}}, TTL: MaxTTL},
	}
	for _, r := range seed {
		enc, err := AppendReq(nil, r)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41})
	f.Add(bytes.Repeat([]byte{byte(OpBatch)}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeReq(data) // must never panic
		// Into a buffer of junk sub-requests: the same request, the same
		// error, nothing of the junk.
		junk := make([]Req, MaxBatch)
		for i := range junk {
			junk[i] = Req{Op: OpTransfer, Key: 13, Amount: 5, Keys: []uint64{1, 2}, Shard: 3}
		}
		into, errInto := DecodeReqInto(data, junk)
		if fmt.Sprint(errInto) != fmt.Sprint(err) || !reflect.DeepEqual(into, req) {
			t.Fatalf("DecodeReqInto gave %+v, %v; DecodeReq gave %+v, %v", into, errInto, req, err)
		}
		if err != nil {
			return
		}
		enc, err := AppendReq(nil, req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %+v: %v", req, err)
		}
		again, err := DecodeReq(enc)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		_ = again
	})
}

// FuzzDecodeReply is the reply-side twin.
func FuzzDecodeReply(f *testing.F) {
	seed := []Reply{
		{Op: OpGet, Found: true, Val: 7},
		{Op: OpPut, OK: true},
		{Op: OpTransfer, Err: "insufficient balance", Code: CodeRejected},
		{Op: OpInvalid, Err: "bad request", Code: CodeRejected},
		{Op: OpStats, Stats: &Stats{Requests: 1, ParseNs: 2, Sheds: 3}},
		{Op: OpBatch, Sub: []Reply{{Op: OpGet, Found: false}}},
		// One seed per overload-protection code (DESIGN.md §13).
		{Op: OpPut, Err: "shed: queue full", Code: CodeOverloaded},
		{Op: OpGet, Err: "deadline expired in queue", Code: CodeDeadlineExceeded},
		{Op: OpCAS, Err: "server draining", Code: CodeDraining},
		{Op: OpTransfer, Err: "panic in body", Code: CodeInternal},
	}
	for _, r := range seed {
		enc, err := AppendReply(nil, r)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(enc)
	}
	f.Add([]byte{byte(OpGet), 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		reply, err := DecodeReply(data) // must never panic
		// Into a buffer of junk sub-replies: the same reply, the same
		// error, nothing of the junk.
		junk := make([]Reply, MaxBatch)
		for i := range junk {
			junk[i] = Reply{Op: OpCAS, Err: "junk", Code: CodeInternal, Found: true, Val: 13, OK: true,
				Stats: &Stats{Requests: 1}, Events: []FeedEvent{{Seq: 1}}}
		}
		into, errInto := DecodeReplyInto(data, junk)
		if fmt.Sprint(errInto) != fmt.Sprint(err) || !reflect.DeepEqual(into, reply) {
			t.Fatalf("DecodeReplyInto gave %+v, %v; DecodeReply gave %+v, %v", into, errInto, reply, err)
		}
		if err != nil {
			return
		}
		if _, err := AppendReply(nil, reply); err != nil {
			t.Fatalf("decoded reply does not re-encode: %+v: %v", reply, err)
		}
	})
}

// FuzzReadFrame asserts the framing layer is total over arbitrary byte
// streams: truncated headers, truncated payloads and oversized length
// prefixes error without panicking, and an accepted frame's payload
// round-trips through WriteFrame.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, []byte("hello"))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("accepted frame does not re-write: %v", err)
		}
		back, err := ReadFrame(&out, nil)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("frame round trip: %v", err)
		}
	})
}
