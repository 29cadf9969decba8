package stmtest

import (
	"math/rand"
	"testing"
	"time"

	"swisstm/internal/stm"
)

// ShortUpdate4 is the fixed-cost benchmark of a short update transaction:
// one thread, no contention, four stripes read and then written per
// transaction (one 64-field object each, so distinct stripes at any
// granularity and distinct objects on RSTM) — a txkv transfer without the
// store around it. What it times is what every engine pays per
// transaction however short: begin, four read-log entries, four lock
// acquisitions, commit.
func ShortUpdate4(b *testing.B, e stm.STM) {
	th := e.NewThread(0)
	var hs [4]stm.Handle
	for i := range hs {
		hs[i] = alloc(th, 64)
	}
	body := func(tx stm.Tx) {
		var v [4]stm.Word
		for i, h := range hs {
			v[i] = tx.ReadField(h, 0)
		}
		for i, h := range hs {
			tx.WriteField(h, 0, v[i]+1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stm.AtomicVoid(th, body)
	}
}

// LongReadStripes is the read-set size of LongRead; the engine under test
// needs at least that many lock-table entries and four words of arena for
// each.
const LongReadStripes = 16384

// LongRead is the direct number for the read path of a long traversal:
// one thread, one declared read-only transaction that reads
// LongReadStripes distinct stripes (one 4-field object each, the engines'
// default granularity) in allocation order, then reads them all again in
// a seeded shuffled order. The first pass logs every read; on an engine
// that deduplicates its read set the second pass is nothing but dedup
// hits, at random access. It reports the two passes apart, in ns per read.
func LongRead(b *testing.B, e stm.STM) {
	th := e.NewThread(0)
	hs := make([]stm.Handle, LongReadStripes)
	for i := range hs {
		hs[i] = alloc(th, 4)
	}
	order := rand.New(rand.NewSource(1)).Perm(len(hs))
	var first, again time.Duration
	body := func(tx stm.TxRO) stm.Word {
		var sum stm.Word
		t0 := time.Now()
		for _, h := range hs {
			sum += tx.ReadField(h, 0)
		}
		t1 := time.Now()
		for _, i := range order {
			sum += tx.ReadField(hs[i], 0)
		}
		first += t1.Sub(t0)
		again += time.Since(t1)
		return sum
	}
	stm.AtomicRO(th, body) // size the read log
	first, again = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stm.AtomicRO(th, body)
	}
	reads := float64(b.N) * LongReadStripes
	b.ReportMetric(float64(first.Nanoseconds())/reads, "ns/first-read")
	b.ReportMetric(float64(again.Nanoseconds())/reads, "ns/re-read")
}
