package swisstm

import (
	"runtime"
	"testing"

	"swisstm/internal/stm"
)

// TestLockWordAliasedReadAfterWrite: two regions that share a lock-table
// entry (tiny table) share one write-log entry, and the lock word leads
// the owner back to it — the aliased word comes from that entry's
// overflow list, the primary word from its stripe values, and an
// unwritten aliased word from memory. An earlier write puts the entry at
// write-log index 1, so a lookup that ignored the index would miss.
func TestLockWordAliasedReadAfterWrite(t *testing.T) {
	// 16-entry table, 4-word stripes: addresses 64 apart alias.
	e := New(Config{ArenaWords: 1 << 14, TableBits: 4, StripeWords: 4})
	th := e.NewThread(5).(*txn)
	var base stm.Addr
	stm.AtomicVoid(th, func(tx stm.Tx) {
		base = tx.AllocWords(4096)
		tx.Store(base+8+128, 7)
	})
	a := base + 8
	want := []struct {
		addr stm.Addr
		val  stm.Word
	}{{a, 10}, {a + 64, 20}, {a + 128, 7}, {base, 1}}
	stm.AtomicVoid(th, func(tx stm.Tx) {
		tx.Store(base, 1)  // write-log entry 0, another stripe
		tx.Store(a, 10)    // entry 1, primary region
		tx.Store(a+64, 20) // same lock entry: entry 1's overflow
		if w, mine := e.locks[e.Stripe(a)].w.Load(), uint32(5+1)<<wTagShift|1; w != mine {
			t.Fatalf("w-lock word = %#x, want %#x (tag 6, write-log index 1)", w, mine)
		}
		if e.Stripe(a) != e.Stripe(a+64) || th.log.Len() != 2 {
			t.Fatalf("regions do not alias: stripes %d/%d, %d entries", e.Stripe(a), e.Stripe(a+64), th.log.Len())
		}
		for _, c := range want {
			if got := tx.Load(c.addr); got != c.val {
				t.Fatalf("read-after-write of word %d = %d, want %d", c.addr, got, c.val)
			}
		}
	})
	for _, c := range want {
		if got := e.Arena().Load(c.addr); got != c.val {
			t.Fatalf("after commit word %d = %d, want %d", c.addr, got, c.val)
		}
	}
}

// TestLockWordOwnerResolution: a second-phase attacker that meets a short
// writer's lock finds the owner's descriptor through the tag in the lock
// word, kills it and waits for the stripe. The victim holds its lock
// until the kill arrives, so the interleaving is forced, not timed.
func TestLockWordOwnerResolution(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	setup := e.NewThread(0)
	var base stm.Addr
	stm.AtomicVoid(setup, func(tx stm.Tx) { base = tx.AllocWords(4 * (wn + 1)) })
	x, s := base, base+4*wn // x is the first of wn stripes; s follows them

	victim := e.NewThread(7).(*txn)
	locked := make(chan struct{})
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		attempt := 0
		stm.AtomicVoid(victim, func(tx stm.Tx) {
			attempt++
			tx.Store(s, tx.Load(s)+1)
			if attempt == 1 {
				close(locked)
				for !victim.killed() {
					runtime.Gosched()
				}
				tx.Load(x) // notices the kill and rolls back
				t.Error("killed victim kept running")
			}
		})
	}()

	<-locked
	attacker := e.NewThread(9)
	stm.AtomicVoid(attacker, func(tx stm.Tx) {
		for i := stm.Addr(0); i < wn; i++ {
			tx.Store(x+4*i, 1) // the wn-th write enters phase two
		}
		tx.Store(s, tx.Load(s)+1)
	})
	<-victimDone

	if as := attacker.Stats(); as.WaitsCM == 0 {
		t.Errorf("attacker never waited on the owner: %+v", as)
	}
	if vs := victim.Stats(); vs.AbortsKilled == 0 {
		t.Errorf("victim was never killed: %+v", vs)
	}
	for _, c := range []struct {
		addr stm.Addr
		want stm.Word
	}{{x, 1}, {x + 4*(wn-1), 1}, {s, 2}} {
		if got := e.Arena().Load(c.addr); got != c.want {
			t.Errorf("word %d = %d, want %d", c.addr, got, c.want)
		}
	}
}

// TestBeginResetsWhenDirty: begin stores to status only when it is dirty.
// A kill that arrives between transactions is cleared by the next begin;
// one that arrives after begin costs that attempt and no other. (The
// cmTS half — phase one again at a fresh begin after a phase-two
// transaction — is the last step of TestTwoPhasePromotion.)
func TestBeginResetsWhenDirty(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	th := e.NewThread(0).(*txn)
	var base stm.Addr
	stm.AtomicVoid(th, func(tx stm.Tx) { base = tx.AllocWords(64) })

	th.status.Store(1) // a kill aimed at a transaction that already committed
	stm.AtomicVoid(th, func(tx stm.Tx) { tx.Store(base, tx.Load(base)+1) })
	if s := th.Stats(); s.Aborts != 0 {
		t.Errorf("a kill delivered between transactions aborted %d attempts, want 0", s.Aborts)
	}

	attempt := 0
	stm.AtomicVoid(th, func(tx stm.Tx) {
		if attempt++; attempt == 1 {
			th.status.Store(1) // the late kill lands on this attempt
		}
		tx.Store(base, tx.Load(base)+1)
	})
	if s := th.Stats(); s.Aborts != 1 || s.AbortsKilled != 1 || attempt != 2 {
		t.Errorf("late kill: %d aborts (%d killed) over %d attempts, want 1 (1) over 2", s.Aborts, s.AbortsKilled, attempt)
	}
	if th.killed() {
		t.Error("status still set after the retry committed")
	}

	if got := e.Arena().Load(base); got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}
}

// TestNewThreadTakesOverID: registering an id again hands its slot in
// the engine's thread table to the new descriptor, so the contention
// manager resolves that tag to the thread that can now own locks under it
// (stmtest's ThreadReRegistration covers the transactional side).
func TestNewThreadTakesOverID(t *testing.T) {
	e := New(Config{ArenaWords: 1 << 12, TableBits: 8})
	e.NewThread(3)
	if b := e.NewThread(3); e.threads[3].Load() != b.(*txn) {
		t.Fatal("engine thread table still names the old descriptor")
	}
}
