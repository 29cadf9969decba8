package txkvwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"swisstm/internal/util"
)

// errCodes are the valid wire error codes.
var errCodes = []Code{CodeRejected, CodeOverloaded, CodeDeadlineExceeded, CodeDraining, CodeInternal}

// randReq builds a random valid request of the given op.
func randReq(rng *util.Rand, op Op, batchOK bool) Req {
	r := Req{Op: op}
	if batchOK && rng.Intn(4) == 0 {
		// Whole microseconds: the wire resolution, so DeepEqual holds.
		r.TTL = time.Duration(1+rng.Intn(5_000_000)) * time.Microsecond
	}
	switch op {
	case OpGet, OpDelete:
		r.Key = rng.Next()
	case OpPut:
		r.Key, r.Val = rng.Next(), rng.Next()
	case OpCAS:
		r.Key, r.Old, r.Val = rng.Next(), rng.Next(), rng.Next()
	case OpTransfer:
		n := 2 + rng.Intn(MaxTransferKeys-1)
		r.Amount = rng.Next()
		for i := 0; i < n; i++ {
			r.Keys = append(r.Keys, rng.Next())
		}
	case OpSum:
		r.Shard = int32(rng.Intn(64)) - 1
	case OpSubscribe:
		r.Shard = int32(rng.Intn(64)) - 1
		r.From = rng.Next()
	case OpLen, OpStats:
	case OpBatch:
		if !batchOK {
			panic("randReq: nested batch requested")
		}
		n := 1 + rng.Intn(8)
		subOps := []Op{OpGet, OpPut, OpDelete, OpCAS, OpTransfer, OpSum, OpLen}
		for i := 0; i < n; i++ {
			r.Sub = append(r.Sub, randReq(rng, subOps[rng.Intn(len(subOps))], false))
		}
	}
	return r
}

// randReply builds a random valid reply of the given op.
func randReply(rng *util.Rand, op Op, batchOK bool) Reply {
	if rng.Intn(8) == 0 {
		return Reply{
			Op:   op,
			Err:  "synthetic failure " + strings.Repeat("x", 1+rng.Intn(16)),
			Code: errCodes[rng.Intn(len(errCodes))],
		}
	}
	r := Reply{Op: op}
	switch op {
	case OpGet:
		r.Found = rng.Intn(2) == 1
		r.Val = rng.Next()
	case OpPut, OpDelete, OpCAS, OpTransfer:
		r.OK = rng.Intn(2) == 1
	case OpSum, OpLen:
		r.Val = rng.Next()
	case OpSubscribe:
		// Empty Events (a heartbeat or the subscription ack) must round
		// trip as well as a full frame.
		if n := rng.Intn(8); n > 0 {
			for i := 0; i < n; i++ {
				r.Events = append(r.Events, FeedEvent{
					Seq: rng.Next(), Del: rng.Intn(4) == 0,
					Key: rng.Next(), Val: rng.Next(),
				})
			}
		}
	case OpBatch:
		if !batchOK {
			panic("randReply: nested batch requested")
		}
		n := 1 + rng.Intn(8)
		subOps := []Op{OpGet, OpPut, OpDelete, OpCAS, OpTransfer, OpSum, OpLen}
		for i := 0; i < n; i++ {
			r.Sub = append(r.Sub, randReply(rng, subOps[rng.Intn(len(subOps))], false))
		}
	case OpStats:
		r.Stats = fillStats(rng.Next())
	}
	return r
}

// statsLeaves returns Stats' counter fields in declaration order, the
// fields of the embedded stm.AbortCauses in its place.
func statsLeaves() []reflect.StructField {
	var leaves []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Stats{})) {
		if !f.Anonymous {
			leaves = append(leaves, f)
		}
	}
	return leaves
}

// fillStats gives every counter of a Stats a distinct value, by
// reflection: a field added to the struct is in every round trip from
// that day on.
func fillStats(base uint64) *Stats {
	s := &Stats{}
	v := reflect.ValueOf(s).Elem()
	for i, f := range statsLeaves() {
		v.FieldByIndex(f.Index).SetUint(base + uint64(i))
	}
	return s
}

// TestStatsFieldList: the one hand-kept list names every counter of the
// struct, embedded ones included, exactly once, so neither the codec nor
// Sub can skip a counter.
func TestStatsFieldList(t *testing.T) {
	var s Stats
	listed := map[*uint64]int{}
	for _, p := range s.fields() {
		listed[p]++
	}
	v := reflect.ValueOf(&s).Elem()
	leaves := statsLeaves()
	for _, f := range leaves {
		p, ok := v.FieldByIndex(f.Index).Addr().Interface().(*uint64)
		if !ok {
			t.Fatalf("Stats.%s is not a uint64", f.Name)
		}
		if listed[p] != 1 {
			t.Errorf("Stats.%s is listed %d times, want once", f.Name, listed[p])
		}
	}
	if len(listed) != len(leaves) {
		t.Errorf("list has %d distinct entries, struct has %d counters", len(listed), len(leaves))
	}
}

// TestStatsSub: every counter is diffed, and exactly the four lifetime
// fields keep the later snapshot's value.
func TestStatsSub(t *testing.T) {
	later, earlier := fillStats(1000), fillStats(10)
	d := later.Sub(*earlier)
	lifetime := map[string]bool{"SrvP50Ns": true, "SrvP99Ns": true, "SrvP999Ns": true, "WalRecovered": true}
	v := reflect.ValueOf(d)
	for i, f := range statsLeaves() {
		want := uint64(990)
		if lifetime[f.Name] {
			want = 1000 + uint64(i)
			delete(lifetime, f.Name)
		}
		if got := v.FieldByIndex(f.Index).Uint(); got != want {
			t.Errorf("Sub: %s = %d, want %d", f.Name, got, want)
		}
	}
	if len(lifetime) != 0 {
		t.Errorf("lifetime fields missing from the struct: %v", lifetime)
	}
}

var allOps = []Op{OpGet, OpPut, OpDelete, OpCAS, OpTransfer, OpSum, OpLen, OpBatch, OpStats, OpSubscribe}

// TestReqRoundTrip encodes and decodes random requests of every op and
// requires the decoded value to be identical — and every strict prefix
// of the encoding to be rejected.
func TestReqRoundTrip(t *testing.T) {
	rng := util.NewRand(1)
	for _, op := range allOps {
		for rep := 0; rep < 50; rep++ {
			req := randReq(rng, op, true)
			enc, err := AppendReq(nil, req)
			if err != nil {
				t.Fatalf("%v: encode: %v", op, err)
			}
			dec, err := DecodeReq(enc)
			if err != nil {
				t.Fatalf("%v: decode: %v", op, err)
			}
			if !reflect.DeepEqual(req, dec) {
				t.Fatalf("%v: round trip mismatch:\n have %+v\n want %+v", op, dec, req)
			}
			for cut := 0; cut < len(enc); cut++ {
				if _, err := DecodeReq(enc[:cut]); err == nil {
					t.Fatalf("%v: %d-byte prefix of %d-byte encoding decoded without error", op, cut, len(enc))
				}
			}
			if _, err := DecodeReq(append(append([]byte(nil), enc...), 0xfe)); err == nil {
				t.Fatalf("%v: trailing byte accepted", op)
			}
		}
	}
}

// TestReplyRoundTrip is the reply-side twin, including error replies.
func TestReplyRoundTrip(t *testing.T) {
	rng := util.NewRand(2)
	for _, op := range allOps {
		for rep := 0; rep < 50; rep++ {
			reply := randReply(rng, op, true)
			enc, err := AppendReply(nil, reply)
			if err != nil {
				t.Fatalf("%v: encode: %v", op, err)
			}
			dec, err := DecodeReply(enc)
			if err != nil {
				t.Fatalf("%v: decode: %v", op, err)
			}
			want := reply
			if want.Err != "" {
				// An error reply round-trips only op + code + message.
				want = Reply{Op: reply.Op, Err: reply.Err, Code: reply.Code}
			}
			if !reflect.DeepEqual(want, dec) {
				t.Fatalf("%v: round trip mismatch:\n have %+v\n want %+v", op, dec, want)
			}
			for cut := 0; cut < len(enc); cut++ {
				if _, err := DecodeReply(enc[:cut]); err == nil {
					t.Fatalf("%v: %d-byte prefix accepted", op, cut)
				}
			}
		}
	}
	// The decode-failure reply carries OpInvalid; it must round-trip too.
	enc, err := AppendReply(nil, Reply{Op: OpInvalid, Err: "bad request", Code: CodeRejected})
	if err != nil {
		t.Fatalf("encode OpInvalid error reply: %v", err)
	}
	dec, err := DecodeReply(enc)
	if err != nil || dec.Err != "bad request" || dec.Code != CodeRejected {
		t.Fatalf("OpInvalid error reply round trip: %+v, %v", dec, err)
	}
}

// TestErrorCodeTaxonomy pins the retryable/permanent split: exactly the
// pre-execution shed codes invite a retry.
func TestErrorCodeTaxonomy(t *testing.T) {
	retryable := map[Code]bool{CodeOverloaded: true, CodeDraining: true}
	for _, c := range errCodes {
		if c.Retryable() != retryable[c] {
			t.Errorf("%v.Retryable() = %v, want %v", c, c.Retryable(), retryable[c])
		}
	}
	if CodeNone.Retryable() {
		t.Error("CodeNone must not be retryable")
	}
}

// TestReqTTLRoundTrip pins TTL encoding: sub-microsecond TTLs round up
// (a deadline must never shrink to zero in transit) and the TTL header
// survives every op.
func TestReqTTLRoundTrip(t *testing.T) {
	enc, err := AppendReq(nil, Req{Op: OpLen, TTL: 1500 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeReq(enc)
	if err != nil || dec.TTL != 2*time.Microsecond {
		t.Fatalf("sub-µs TTL: got %v, %v (want 2µs, rounded up)", dec.TTL, err)
	}
	if _, err := AppendReq(nil, Req{Op: OpLen, TTL: MaxTTL + time.Microsecond}); err == nil {
		t.Fatal("oversized TTL accepted")
	}
	if _, err := AppendReq(nil, Req{Op: OpLen, TTL: -time.Second}); err == nil {
		t.Fatal("negative TTL accepted")
	}
	if _, err := AppendReq(nil, Req{
		Op:  OpBatch,
		Sub: []Req{{Op: OpLen, TTL: time.Second}},
	}); err == nil {
		t.Fatal("TTL on a batch sub-request accepted")
	}
}

// TestEncodeRejectsMalformed pins the encoder-side validation.
func TestEncodeRejectsMalformed(t *testing.T) {
	cases := []Req{
		{Op: OpInvalid},
		{Op: opMax},
		{Op: OpTransfer, Keys: []uint64{1}},
		{Op: OpTransfer, Keys: make([]uint64, MaxTransferKeys+1)},
		{Op: OpBatch},
		{Op: OpBatch, Sub: make([]Req, MaxBatch+1)},
		{Op: OpBatch, Sub: []Req{{Op: OpBatch, Sub: []Req{{Op: OpLen}}}}},
		{Op: OpBatch, Sub: []Req{{Op: OpStats}}},
		{Op: OpBatch, Sub: []Req{{Op: OpSubscribe}}},
	}
	for _, req := range cases {
		if _, err := AppendReq(nil, req); err == nil {
			t.Errorf("encode accepted malformed request %+v", req)
		}
	}
	if _, err := AppendReply(nil, Reply{Op: OpStats}); err == nil {
		t.Error("encode accepted stats reply without stats")
	}
	if _, err := AppendReply(nil, Reply{Op: OpBatch}); err == nil {
		t.Error("encode accepted empty batch reply")
	}
	// Typed-error discipline: no untyped errors, no codes on successes.
	if _, err := AppendReply(nil, Reply{Op: OpGet, Err: "boom"}); err == nil {
		t.Error("encode accepted an error reply without a code")
	}
	if _, err := AppendReply(nil, Reply{Op: OpGet, Err: "boom", Code: codeMax}); err == nil {
		t.Error("encode accepted an error reply with an out-of-range code")
	}
	if _, err := AppendReply(nil, Reply{Op: OpGet, Found: true, Code: CodeOverloaded}); err == nil {
		t.Error("encode accepted a success reply carrying an error code")
	}
}

// TestDecodeRejectsMalformed feeds hand-built garbage payloads. Request
// payloads lead with the flags header byte (0 = no TTL).
func TestDecodeRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		{},                           // empty
		{0},                          // header only, no opcode
		{0, byte(opMax), 0, 0},       // unknown op
		{0, byte(OpGet), 1, 2, 3},    // truncated key
		{0, byte(OpBatch), 0, 0},     // zero-length batch
		{0, byte(OpBatch), 255, 255}, // oversized batch count
		{0, byte(OpTransfer), 0, 0, 0, 0, 0, 0, 0, 0, 1, 0}, // one transfer key
		{0xfe, byte(OpLen)},          // unknown flag bits
		{1, 0, 0, 0, 0, byte(OpLen)}, // TTL flag with zero TTL
		{1, 10, 0, 0, byte(OpLen)},   // truncated TTL
	}
	for _, payload := range bad {
		if _, err := DecodeReq(payload); err == nil {
			t.Errorf("decode accepted malformed request payload % x", payload)
		}
	}
	if _, err := DecodeReply([]byte{byte(OpGet), 7}); err == nil {
		t.Error("decode accepted reply with bad status byte")
	}
	if _, err := DecodeReply([]byte{byte(OpGet), 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("decode accepted reply with bad bool byte")
	}
	// Error replies must carry a known code.
	if _, err := DecodeReply([]byte{byte(OpGet), 1, 0, 1, 0, 'x'}); err == nil {
		t.Error("decode accepted an error reply with code 0")
	}
	if _, err := DecodeReply([]byte{byte(OpGet), 1, byte(codeMax), 1, 0, 'x'}); err == nil {
		t.Error("decode accepted an error reply with an unknown code")
	}
}

// TestFrameRoundTrip covers the length-prefixed framing layer.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 4096)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	var scratch []byte
	for _, p := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame mismatch: % x != % x", got, p)
		}
		scratch = got
	}

	// Oversized length prefix: rejected before any payload read.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
	// Truncated payload: io error, not a hang or panic.
	trunc := []byte{8, 0, 0, 0, 1, 2, 3}
	if _, err := ReadFrame(bytes.NewReader(trunc), nil); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("oversized write: got %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameBuffered: only a complete frame in the read buffer counts — a
// short prefix or a partial payload would make the next ReadFrame block.
// Little-endian prefix: {0, 1, 0, 0} announces 256 bytes, not 65536.
func TestFrameBuffered(t *testing.T) {
	frame := func(n int) []byte { return append([]byte{byte(n), byte(n >> 8), 0, 0}, make([]byte, n)...) }
	cases := []struct {
		name string
		in   []byte
		want bool
	}{
		{"empty", nil, false},
		{"prefix cut short", []byte{1, 0, 0}, false},
		{"prefix only", []byte{1, 0, 0, 0}, false},
		{"empty frame", frame(0), true},
		{"one byte missing", frame(9)[:12], false},
		{"exactly one frame", frame(9), true},
		{"a frame and a partial one", append(frame(2), 5, 0, 0, 0, 1), true},
		{"256-byte frame", frame(256), true},
		{"256-byte frame cut short", frame(256)[:259], false},
	}
	for _, c := range cases {
		br := bufio.NewReaderSize(bytes.NewReader(c.in), 1024)
		br.Peek(1) // fill the buffer, as the ReadFrame before it would have
		if got := FrameBuffered(br); got != c.want {
			t.Errorf("%s: FrameBuffered = %v, want %v", c.name, got, c.want)
		}
		if br.Buffered() != len(c.in) {
			t.Errorf("%s: FrameBuffered consumed input", c.name)
		}
	}
	// Bytes still in the socket do not count, whatever they hold.
	if FrameBuffered(bufio.NewReader(bytes.NewReader(frame(1)))) {
		t.Error("FrameBuffered read from the underlying reader")
	}
}

// TestAppendReqFrame: the one-buffer framing is byte-identical to
// AppendReq + WriteFrame, appends after existing frames, and keeps
// AppendReq's validation.
func TestAppendReqFrame(t *testing.T) {
	reqs := []Req{
		{Op: OpGet, Key: 1},
		{Op: OpPut, Key: 2, Val: 3, TTL: time.Millisecond},
		{Op: OpBatch, Sub: []Req{{Op: OpCAS, Key: 4, Old: 5, Val: 6}, {Op: OpLen}}},
	}
	var want bytes.Buffer
	var got []byte
	for _, r := range reqs {
		payload, err := AppendReq(nil, r)
		if err != nil {
			t.Fatalf("encode %v: %v", r.Op, err)
		}
		if err := WriteFrame(&want, payload); err != nil {
			t.Fatal(err)
		}
		if got, err = AppendReqFrame(got, r); err != nil {
			t.Fatalf("frame %v: %v", r.Op, err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("frames differ:\n got % x\nwant % x", got, want.Bytes())
	}
	if out, err := AppendReqFrame(got, Req{Op: OpGet, TTL: -1}); err == nil || !bytes.Equal(out, want.Bytes()) {
		t.Fatalf("a request AppendReq refuses: err %v, and dst must come back unchanged", err)
	}
}

// TestAppendReplyFrame: the reply twin — byte-identical to AppendReply +
// WriteFrame, appending after existing frames, dst back unchanged when
// AppendReply refuses.
func TestAppendReplyFrame(t *testing.T) {
	replies := []Reply{
		{Op: OpPut, OK: true},
		{Op: OpGet, Found: true, Val: 7},
		{Op: OpCAS, Err: "overloaded: queue full", Code: CodeOverloaded},
		{Op: OpBatch, Sub: []Reply{{Op: OpGet, Found: true, Val: 8}, {Op: OpLen, Val: 9}}},
	}
	var want bytes.Buffer
	var got []byte
	for _, r := range replies {
		payload, err := AppendReply(nil, r)
		if err != nil {
			t.Fatalf("encode %v: %v", r.Op, err)
		}
		if err := WriteFrame(&want, payload); err != nil {
			t.Fatal(err)
		}
		if got, err = AppendReplyFrame(got, r); err != nil {
			t.Fatalf("frame %v: %v", r.Op, err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("frames differ:\n got % x\nwant % x", got, want.Bytes())
	}
	if out, err := AppendReplyFrame(got, Reply{Op: OpGet, Err: "untyped"}); err == nil || !bytes.Equal(out, want.Bytes()) {
		t.Fatalf("a reply AppendReply refuses: err %v, and dst must come back unchanged", err)
	}
}

// TestFramePathsDoNotAllocate pins the per-request framing at zero heap
// objects: a length prefix declared as a local array escapes through the
// io.Reader or io.Writer it is handed to, one allocation per frame.
func TestFramePathsDoNotAllocate(t *testing.T) {
	frame, err := AppendReqFrame(nil, Req{Op: OpPut, Key: 1, Val: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	var buf []byte
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		if buf, err = ReadFrame(br, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadFrame into a reused buffer: %v allocations per frame, want 0", n)
	}

	bw := bufio.NewWriter(io.Discard)
	var obuf []byte
	if n := testing.AllocsPerRun(100, func() {
		if obuf, err = AppendReplyFrame(obuf[:0], Reply{Op: OpPut, OK: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := bw.Write(obuf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encoding and buffering a Put reply: %v allocations, want 0", n)
	}
}

// TestDecodeAllocs pins what decoding costs: each decoded slice is made
// once, at the size it ends at, and a Batch decoded into a buffer with
// room makes none. A frame that announces the most entries and carries
// no body allocates in proportion to its bytes, not to the announcement.
func TestDecodeAllocs(t *testing.T) {
	gets := Req{Op: OpBatch, Sub: make([]Req, MaxBatch)}
	getsReply := Reply{Op: OpBatch, Sub: make([]Reply, MaxBatch)}
	for i := range gets.Sub {
		gets.Sub[i] = Req{Op: OpGet, Key: uint64(i + 1)}
		getsReply.Sub[i] = Reply{Op: OpGet, Found: true, Val: uint64(i)}
	}
	transfer := Req{Op: OpTransfer, Amount: 1, Keys: make([]uint64, MaxTransferKeys)}
	for i := range transfer.Keys {
		transfer.Keys[i] = uint64(i + 1)
	}
	feed := Reply{Op: OpSubscribe, Events: make([]FeedEvent, MaxFeedEvents)}
	for i := range feed.Events {
		feed.Events[i] = FeedEvent{Seq: uint64(i + 1), Key: uint64(i), Val: 3}
	}
	getsP, err1 := AppendReq(nil, gets)
	getsReplyP, err2 := AppendReply(nil, getsReply)
	transferP, err3 := AppendReq(nil, transfer)
	feedP, err4 := AppendReply(nil, feed)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	decReq := func(p []byte) error { _, err := DecodeReq(p); return err }
	decReply := func(p []byte) error { _, err := DecodeReply(p); return err }
	subs := make([]Req, 0, MaxBatch)
	replies := make([]Reply, 0, MaxBatch)
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
		want    float64
	}{
		{"DecodeReq, 256-Get Batch", getsP, decReq, 1},
		{"DecodeReply, 256-Get Batch reply", getsReplyP, decReply, 1},
		{"DecodeReq, 64-key Transfer", transferP, decReq, 1},
		{"DecodeReply, 512-event Subscribe frame", feedP, decReply, 1},
		{"DecodeReqInto a MaxBatch buffer, 256-Get Batch", getsP,
			func(p []byte) error { _, err := DecodeReqInto(p, subs); return err }, 0},
		{"DecodeReplyInto a MaxBatch buffer, 256-Get Batch reply", getsReplyP,
			func(p []byte) error { _, err := DecodeReplyInto(p, replies); return err }, 0},
	} {
		var err error
		got := testing.AllocsPerRun(100, func() { err = tc.decode(tc.payload) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.want)
		}
	}

	// Announced counts with no body: MaxBatch (256) sub-requests and
	// sub-replies, MaxTransferKeys keys, MaxFeedEvents (512) events.
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"Batch", []byte{0, byte(OpBatch), 0, 1}, decReq},
		{"Transfer", []byte{0, byte(OpTransfer), 1, 0, 0, 0, 0, 0, 0, 0, MaxTransferKeys, 0}, decReq},
		{"Batch reply", []byte{byte(OpBatch), 0, 0, 1}, decReply},
		{"Subscribe frame", []byte{byte(OpSubscribe), 0, 0, 2}, decReply},
	} {
		const n = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			if tc.decode(tc.payload) == nil {
				t.Fatalf("%s with no body decoded", tc.name)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1<<10 {
			t.Errorf("%s announcing the most entries with no body: %d bytes per decode, want under 1 KiB", tc.name, per)
		}
	}
}
