// Package cm implements the contention managers the paper evaluates with
// RSTM (§2.1): Timid, Polka, Greedy and Serializer. A contention manager
// decides what an *attacker* transaction does when it conflicts with a
// *victim* that currently owns the contended object.
//
// SwissTM's two-phase manager is not here: it is inseparable from the
// engine's write-counting fast path and lives in internal/swisstm.
package cm

import (
	"sync/atomic"

	"swisstm/internal/util"
)

// Decision is a contention manager's verdict for one conflict encounter.
type Decision int

const (
	// AbortSelf: the attacker rolls back and retries.
	AbortSelf Decision = iota
	// AbortOther: the attacker kills the victim and takes the object.
	AbortOther
	// Wait: the attacker backs off and re-examines the conflict.
	Wait
)

// TxState is the per-thread view a manager keeps of a transaction. Fields
// are atomic because victims' states are read by attackers.
type TxState struct {
	// Timestamp orders transactions for Greedy/Serializer (lower = older
	// = higher priority).
	Timestamp atomic.Uint64
	// Opens counts objects opened so far; Polka uses it as the priority.
	Opens atomic.Uint64
}

// Manager arbitrates conflicts. Implementations must be safe for
// concurrent use: Resolve runs on the attacker's thread while the victim
// runs elsewhere.
type Manager interface {
	Name() string
	// OnStart is called at every transaction begin; restart reports
	// whether this is a retry of an aborted transaction.
	OnStart(tx *TxState, restart bool)
	// OnOpen is called after every successful object open.
	OnOpen(tx *TxState)
	// Resolve decides the attacker's move at the attempt-th consecutive
	// encounter of the same conflict (attempt starts at 0). A Wait
	// decision is followed by WaitBackoff and a re-check.
	Resolve(attacker, victim *TxState, attempt int) Decision
	// WaitBackoff performs the manager's waiting policy after Resolve
	// returned Wait.
	WaitBackoff(rng *util.Rand, attempt int)
}

// Timid always aborts the attacker — the default scheme of TL2 and
// TinySTM, cheap for short transactions and unfair to long ones (§1).
type Timid struct{}

// NewTimid returns the timid manager.
func NewTimid() *Timid { return &Timid{} }

// Name implements Manager.
func (*Timid) Name() string { return "Timid" }

// OnStart implements Manager.
func (*Timid) OnStart(tx *TxState, restart bool) {}

// OnOpen implements Manager.
func (*Timid) OnOpen(tx *TxState) {}

// Resolve implements Manager.
func (*Timid) Resolve(attacker, victim *TxState, attempt int) Decision { return AbortSelf }

// WaitBackoff implements Manager.
func (*Timid) WaitBackoff(rng *util.Rand, attempt int) {}

// Greedy (Guerraoui, Herlihy, Pochon, PODC 2005) gives every transaction a
// unique timestamp at its *first* start, kept across restarts; the
// transaction with the lower timestamp always wins. This makes Greedy
// starvation-free — the property §5 shows matters for long transactions —
// at the cost of a shared counter touched by every transaction
// (Figure 10's weakness on short transactions).
type Greedy struct {
	clock atomic.Uint64
}

// NewGreedy returns a Greedy manager with its own timestamp source.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Manager.
func (*Greedy) Name() string { return "Greedy" }

// OnStart implements Manager.
func (g *Greedy) OnStart(tx *TxState, restart bool) {
	if !restart {
		tx.Timestamp.Store(g.clock.Add(1))
	}
	tx.Opens.Store(0)
}

// OnOpen implements Manager.
func (*Greedy) OnOpen(tx *TxState) {}

// Resolve implements Manager.
func (*Greedy) Resolve(attacker, victim *TxState, attempt int) Decision {
	if attacker.Timestamp.Load() < victim.Timestamp.Load() {
		return AbortOther
	}
	return Wait // the older victim will finish; then the attacker proceeds
}

// WaitBackoff implements Manager.
func (*Greedy) WaitBackoff(rng *util.Rand, attempt int) {
	util.BackoffExp(rng, attempt, 64)
}

// Serializer is Greedy with the timestamp reassigned on every restart, so
// it does not prevent starvation (§2.1) — a restarted transaction becomes
// the youngest and loses again. It was RSTM's best performer on
// STMBench7 in the paper's configuration (§4).
type Serializer struct {
	clock atomic.Uint64
}

// NewSerializer returns a Serializer manager.
func NewSerializer() *Serializer { return &Serializer{} }

// Name implements Manager.
func (*Serializer) Name() string { return "Serializer" }

// OnStart implements Manager.
func (s *Serializer) OnStart(tx *TxState, restart bool) {
	tx.Timestamp.Store(s.clock.Add(1)) // fresh timestamp on every attempt
	tx.Opens.Store(0)
}

// OnOpen implements Manager.
func (*Serializer) OnOpen(tx *TxState) {}

// Resolve implements Manager.
func (*Serializer) Resolve(attacker, victim *TxState, attempt int) Decision {
	if attacker.Timestamp.Load() < victim.Timestamp.Load() {
		return AbortOther
	}
	return Wait
}

// WaitBackoff implements Manager.
func (*Serializer) WaitBackoff(rng *util.Rand, attempt int) {
	util.BackoffExp(rng, attempt, 64)
}

// Polka (Scherer & Scott, PODC 2005) combines Polite's exponential
// back-off with Karma's priority accumulation: a transaction's priority is
// the number of objects it has opened; an attacker waits (with
// exponentially growing intervals, gaining one priority unit per wait)
// and aborts the victim once its effective priority reaches the victim's.
// The paper found it best-in-class on small benchmarks but inferior to
// Greedy on large ones (Figure 9).
type Polka struct{}

// NewPolka returns the Polka manager.
func NewPolka() *Polka { return &Polka{} }

// Name implements Manager.
func (*Polka) Name() string { return "Polka" }

// OnStart implements Manager.
func (*Polka) OnStart(tx *TxState, restart bool) { tx.Opens.Store(0) }

// OnOpen implements Manager.
func (*Polka) OnOpen(tx *TxState) { tx.Opens.Add(1) }

// Resolve implements Manager.
func (*Polka) Resolve(attacker, victim *TxState, attempt int) Decision {
	if attacker.Opens.Load()+uint64(attempt) >= victim.Opens.Load() {
		return AbortOther
	}
	return Wait
}

// WaitBackoff implements Manager.
func (*Polka) WaitBackoff(rng *util.Rand, attempt int) {
	util.BackoffExp(rng, attempt, 128)
}

// ByName returns a fresh manager instance for a configuration string, or
// nil for an unknown name. Managers with internal clocks must not be
// shared between engines, hence the factory.
func ByName(name string) Manager {
	switch name {
	case "timid", "Timid":
		return NewTimid()
	case "greedy", "Greedy":
		return NewGreedy()
	case "serializer", "Serializer":
		return NewSerializer()
	case "polka", "Polka":
		return NewPolka()
	}
	return nil
}
