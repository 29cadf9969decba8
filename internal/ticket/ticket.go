// Package ticket orders work that is decided in one order and finished in
// another: a ticket is drawn at the moment that fixes the order, finished
// later from whatever goroutine gets there, and admitted strictly in
// ticket order. coalesce.Commit is where the commit log's and the change
// feeds' tickets are drawn, and says why there (DESIGN.md §12.2).
package ticket

import "sync/atomic"

// Sequencer admits values in the order their tickets were reserved.
// Reserve is lock-free and safe from any goroutine; every other method
// runs under the owner's mutex — the one that guards what admit writes
// to. Every reserved ticket must be finished exactly once, by Publish or
// Abandon: an unfinished one stalls everything behind it, and finishing
// one twice panics.
type Sequencer[T any] struct {
	last atomic.Uint64 // last ticket handed out; the first is 1

	next   uint64 // ticket admitted next
	parked map[uint64]slot[T]
	clone  func(T) T
	admit  func(T)
}

// slot is a ticket finished ahead of its predecessors.
type slot[T any] struct {
	v    T
	live bool // false: abandoned
}

// New returns a sequencer that hands each published value to admit, in
// ticket order. A value published ahead of its turn is kept as clone(v)
// until the gap closes, so callers may reuse their buffers as soon as
// Publish returns.
func New[T any](clone func(T) T, admit func(T)) *Sequencer[T] {
	return &Sequencer[T]{next: 1, parked: map[uint64]slot[T]{}, clone: clone, admit: admit}
}

// Reserve draws the next ticket: one atomic add, cheap enough for a
// transaction body.
func (s *Sequencer[T]) Reserve() uint64 { return s.last.Add(1) }

// Publish finishes tk with v.
func (s *Sequencer[T]) Publish(tk uint64, v T) { s.finish(tk, v, true) }

// Abandon finishes tk with nothing to admit — the ticket of an attempt
// that did not commit.
func (s *Sequencer[T]) Abandon(tk uint64) {
	var none T
	s.finish(tk, none, false)
}

func (s *Sequencer[T]) finish(tk uint64, v T, live bool) {
	if _, dup := s.parked[tk]; dup || tk < s.next {
		panic("ticket: finished twice")
	}
	if tk > s.next {
		if live {
			v = s.clone(v)
		}
		s.parked[tk] = slot[T]{v, live}
		return
	}
	for {
		if live {
			s.admit(v)
		}
		s.next++
		p, ok := s.parked[s.next]
		if !ok {
			return
		}
		delete(s.parked, s.next)
		v, live = p.v, p.live
	}
}

// Discard forgets every parked ticket and hands the published values
// among them to drop: the owner has failed or is closing and admits
// nothing further.
func (s *Sequencer[T]) Discard(drop func(T)) {
	for tk, p := range s.parked {
		if p.live {
			drop(p.v)
		}
		delete(s.parked, tk)
	}
}
