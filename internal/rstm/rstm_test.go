package rstm

import (
	"testing"

	"swisstm/internal/cm"
	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
)

// variants are the RSTM configurations the conformance suite and the
// abort-cause partition run: both acquisition modes, both read
// visibilities, and each contention manager.
var variants = []struct {
	name string
	cfg  Config
}{
	{"eager-invisible-polka", Config{Acquire: Eager, Reads: Invisible, Manager: cm.NewPolka()}},
	{"eager-invisible-timid", Config{Acquire: Eager, Reads: Invisible, Manager: cm.NewTimid()}},
	{"eager-invisible-greedy", Config{Acquire: Eager, Reads: Invisible, Manager: cm.NewGreedy()}},
	{"eager-invisible-serializer", Config{Acquire: Eager, Reads: Invisible, Manager: cm.NewSerializer()}},
	{"eager-visible-polka", Config{Acquire: Eager, Reads: Visible, Manager: cm.NewPolka()}},
	{"lazy-invisible-polka", Config{Acquire: Lazy, Reads: Invisible, Manager: cm.NewPolka()}},
	{"lazy-invisible-timid", Config{Acquire: Lazy, Reads: Invisible, Manager: cm.NewTimid()}},
	{"lazy-visible-timid", Config{Acquire: Lazy, Reads: Visible, Manager: cm.NewTimid()}},
}

func TestConformanceVariants(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg
			stmtest.Run(t, func() stm.STM {
				c := cfg
				c.Manager = cm.ByName(cfg.Manager.Name()) // fresh clock per engine
				return New(c)
			}, stmtest.Options{WordAPI: false})
		})
	}
}

func TestCloneIsolation(t *testing.T) {
	// A writer's clone must be invisible to a concurrent reader until the
	// status CAS; after abort, the old data must remain current.
	e := New(Config{Acquire: Eager, Reads: Invisible, Manager: cm.NewTimid()})
	th := e.NewThread(0)
	var h stm.Handle
	stm.AtomicVoid(th, func(tx stm.Tx) { h = tx.NewObject(2) })
	stm.AtomicVoid(th, func(tx stm.Tx) {
		tx.WriteField(h, 0, 10)
		tx.WriteField(h, 1, 20)
	})

	// Abort a transaction mid-flight via Restart after writing; the writes
	// must not be visible afterwards.
	tries := 0
	stm.AtomicVoid(th, func(tx stm.Tx) {
		tries++
		if tries == 1 {
			tx.WriteField(h, 0, 999)
			tx.Restart()
		}
	})
	var a, b stm.Word
	stm.AtomicVoid(th, func(tx stm.Tx) {
		a = tx.ReadField(h, 0)
		b = tx.ReadField(h, 1)
	})
	if a != 10 || b != 20 {
		t.Fatalf("aborted write leaked: got (%d,%d), want (10,20)", a, b)
	}
	if tries != 2 {
		t.Fatalf("restart count = %d, want 2", tries)
	}
}

func TestObjectTableGrowth(t *testing.T) {
	e := New(Config{})
	th := e.NewThread(0)
	// Allocate across multiple chunks.
	n := chunkSize + 100
	hs := make([]stm.Handle, 0, n)
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for i := 0; i < n; i++ {
			hs = append(hs, tx.NewObject(1))
		}
	})
	stm.AtomicVoid(th, func(tx stm.Tx) {
		tx.WriteField(hs[0], 0, 1)
		tx.WriteField(hs[n-1], 0, 2)
	})
	stm.AtomicVoid(th, func(tx stm.Tx) {
		if tx.ReadField(hs[0], 0) != 1 || tx.ReadField(hs[n-1], 0) != 2 {
			t.Error("cross-chunk object state lost")
		}
	})
}

// TestTransferExtend: contended transfers that meet a foreign commit
// mid-body must not lose an update (invisible reads validate by epoch).
func TestTransferExtend(t *testing.T) {
	stmtest.TransferExtend(t, New(Config{Acquire: Eager, Reads: Invisible, Manager: cm.NewPolka()}))
}

// TestReadCounters: RSTM counts the read-set entries its attempts log —
// committed and aborted alike, the size it records in obs — and its
// validation passes over them, as the word engines do, so its records'
// reads_logged and validations columns are not zero.
func TestReadCounters(t *testing.T) {
	for _, reads := range []ReadMode{Invisible, Visible} {
		t.Run(reads.String(), func(t *testing.T) {
			e := New(Config{Reads: reads})
			th := e.NewThread(0)
			var a, b, c stm.Handle
			stm.AtomicVoid(th, func(tx stm.Tx) { a, b, c = tx.NewObject(1), tx.NewObject(1), tx.NewObject(1) })

			sum := func(tx stm.TxRO) stm.Word { return tx.ReadField(a, 0) + tx.ReadField(b, 0) + tx.ReadField(c, 0) }
			stm.AtomicRO(th, sum)
			n := 0
			stm.AtomicRO(th, func(tx stm.TxRO) stm.Word {
				if n++; n == 1 {
					tx.ReadField(a, 0)
					tx.Restart()
				}
				return sum(tx)
			})
			stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(c, 0, tx.ReadField(a, 0)+tx.ReadField(b, 0)) })

			// 3 + (1 aborted + 3) + 2 entries; the writer validates its two
			// invisible reads once, in the flip section of its commit.
			want := stm.Stats{ReadsLogged: 9}
			if reads == Invisible {
				want.Validations, want.ValidationReads = 1, 2
			}
			s := th.Stats()
			if s.ReadsLogged != want.ReadsLogged || s.Validations != want.Validations || s.ValidationReads != want.ValidationReads {
				t.Errorf("ReadsLogged/Validations/ValidationReads = %d/%d/%d, want %d/%d/%d",
					s.ReadsLogged, s.Validations, s.ValidationReads, want.ReadsLogged, want.Validations, want.ValidationReads)
			}
		})
	}
}
