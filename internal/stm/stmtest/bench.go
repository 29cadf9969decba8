package stmtest

import (
	"testing"

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
