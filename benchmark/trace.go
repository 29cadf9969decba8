package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// Tracing, from outside: the benchmark wraps its calls into a layer's
// public functions in spans. Spans are kept in memory, one slice per
// caller (only that caller's goroutine appends to it), and written to
// -out when the benchmark ends. The gated run records none.

// Span names: the public call each span wraps.
const (
	spanOp       uint8 = iota // one logical operation of the workload (root)
	spanBench7Op              // bench7.Ops.Op
	spanAtomic                // stm.Atomic around the transfer body
	spanTransfer              // txkv.Store.Transfer, once per attempt
	spanClientDo              // txkvclient.Client.Do
	spanPipeTrip              // txkvclient.Pipe.Submit called → Pipe.Recv returned its reply
)

var spanNames = [...]string{
	spanOp:       "op",
	spanBench7Op: "bench7.Ops.Op",
	spanAtomic:   "stm.Atomic",
	spanTransfer: "txkv.Store.Transfer",
	spanClientDo: "txkvclient.Client.Do",
	spanPipeTrip: "txkvclient.Pipe.Submit-Recv",
}

// span is one timed call. parent indexes the same tracer's spans (-1 for
// a root); req is the operation's index in its caller's stream, shared
// by all spans of that operation.
type span struct {
	name       uint8
	parent     int32
	req        uint32
	start, end int64 // ns since the tracer's origin
}

// tracer collects the spans of one caller.
type tracer struct {
	origin time.Time
	mask   int // operation i is traced when i&mask == 0
	spans  []span
}

func newTracer(origin time.Time, every, capHint int) *tracer {
	return &tracer{origin: origin, mask: every - 1, spans: make([]span, 0, capHint)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// sampled reports whether operation i of the caller's stream is traced.
// A nil tracer traces nothing.
func (t *tracer) sampled(i int) bool { return t != nil && i&t.mask == 0 }

// begin opens a span now and returns its index.
func (t *tracer) begin(name uint8, parent int32, req uint32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: t.now()})
	return int32(len(t.spans) - 1)
}

// finish closes span i now.
func (t *tracer) finish(i int32) { t.spans[i].end = t.now() }

// add records a span whose ends were taken elsewhere (the pipelined
// client: one goroutine submits, another receives).
func (t *tracer) add(name uint8, parent int32, req uint32, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// durations returns the lengths of every span with the given name.
func durations(spans []span, name uint8) []int64 {
	var d []int64
	for _, s := range spans {
		if s.name == name {
			d = append(d, s.end-s.start)
		}
	}
	slices.Sort(d)
	return d
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover.
// Children may overlap one another and may stick out of the parent; the
// union of their intervals, clipped to the parent, is what is removed.
func selfTimes(spans []span) map[uint8]int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make(map[uint8]int64)
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.name] += (s.end - s.start) - covered
	}
	return self
}

// writeSpans writes every traced epoch's spans as JSON lines.
func writeSpans(path string, workload string, results []epochResult) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for e, r := range results {
		for c, spans := range r.spans {
			for i, s := range spans {
				fmt.Fprintf(w, `{"workload":%q,"epoch":%d,"caller":%d,"span":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
					workload, e, c, i, s.parent, s.req, spanNames[s.name], s.start, s.end)
			}
		}
	}
	return w.Flush()
}
