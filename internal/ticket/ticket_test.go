package ticket

import (
	"slices"
	"sync"
	"testing"
)

// log is a sequencer of byte slices whose admit appends to got.
type log struct {
	seq *Sequencer[[]byte]
	got []string
}

func newLog() *log {
	l := &log{}
	l.seq = New(slices.Clone[[]byte], func(v []byte) { l.got = append(l.got, string(v)) })
	return l
}

func (l *log) want(t *testing.T, want ...string) {
	t.Helper()
	if !slices.Equal(l.got, want) {
		t.Fatalf("admitted %q, want %q", l.got, want)
	}
}

func TestInOrderAdmitsAtOnce(t *testing.T) {
	l := newLog()
	for _, v := range []string{"a", "b", "c"} {
		l.seq.Publish(l.seq.Reserve(), []byte(v))
	}
	l.want(t, "a", "b", "c")
}

func TestOutOfOrderParksUntilTheGapCloses(t *testing.T) {
	l := newLog()
	t1, t2, t3 := l.seq.Reserve(), l.seq.Reserve(), l.seq.Reserve()
	l.seq.Publish(t3, []byte("c"))
	l.seq.Publish(t2, []byte("b"))
	l.want(t)
	l.seq.Publish(t1, []byte("a"))
	l.want(t, "a", "b", "c")
}

func TestAbandonClosesAGap(t *testing.T) {
	l := newLog()
	t1, t2, t3, t4 := l.seq.Reserve(), l.seq.Reserve(), l.seq.Reserve(), l.seq.Reserve()
	l.seq.Publish(t2, []byte("b"))
	l.seq.Abandon(t3) // parked as abandoned: admits nothing when reached
	l.seq.Publish(t4, []byte("d"))
	l.want(t)
	l.seq.Abandon(t1)
	l.want(t, "b", "d")
}

// A parked value is the sequencer's own copy: the publisher reuses its
// buffer as soon as Publish returns. A value published in turn is handed
// to admit as it is.
func TestParkedValuesAreCopied(t *testing.T) {
	l := newLog()
	t1, t2 := l.seq.Reserve(), l.seq.Reserve()
	buf := []byte("b")
	l.seq.Publish(t2, buf)
	buf[0] = 'x'
	l.seq.Publish(t1, buf)
	l.want(t, "x", "b")
}

func TestFinishingTwicePanics(t *testing.T) {
	for name, again := range map[string]func(l *log, admitted, parked uint64){
		"publish after admit":  func(l *log, admitted, _ uint64) { l.seq.Publish(admitted, nil) },
		"abandon after admit":  func(l *log, admitted, _ uint64) { l.seq.Abandon(admitted) },
		"publish while parked": func(l *log, _, parked uint64) { l.seq.Publish(parked, nil) },
		"abandon while parked": func(l *log, _, parked uint64) { l.seq.Abandon(parked) },
	} {
		t.Run(name, func(t *testing.T) {
			l := newLog()
			admitted, _, parked := l.seq.Reserve(), l.seq.Reserve(), l.seq.Reserve()
			l.seq.Publish(admitted, []byte("a"))
			l.seq.Abandon(parked)
			defer func() {
				if recover() == nil {
					t.Fatal("a ticket was finished twice without a panic")
				}
			}()
			again(l, admitted, parked)
		})
	}
}

func TestDiscardHandsBackParkedPublishes(t *testing.T) {
	l := newLog()
	_, t2, t3 := l.seq.Reserve(), l.seq.Reserve(), l.seq.Reserve()
	l.seq.Publish(t2, []byte("b"))
	l.seq.Abandon(t3)
	var dropped []string
	l.seq.Discard(func(v []byte) { dropped = append(dropped, string(v)) })
	if !slices.Equal(dropped, []string{"b"}) {
		t.Fatalf("discard dropped %q, want the one parked publish", dropped)
	}
	l.want(t)
}

// Concurrent finishers, each under the owner's mutex: everything
// published is admitted exactly once, in ticket order, whatever order the
// finishes arrive in.
func TestConcurrentPublishAbandon(t *testing.T) {
	const workers, each = 8, 2000
	var (
		mu       sync.Mutex
		admitted []uint64
	)
	seq := New(slices.Clone[[]byte], func(v []byte) {
		admitted = append(admitted, uint64(v[0])|uint64(v[1])<<8|uint64(v[2])<<16)
	})
	var wg sync.WaitGroup
	published := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 3)
			for i := 0; i < each; i++ {
				tk := seq.Reserve()
				mu.Lock()
				if (tk+uint64(w))%3 == 0 {
					seq.Abandon(tk)
				} else {
					buf[0], buf[1], buf[2] = byte(tk), byte(tk>>8), byte(tk>>16)
					seq.Publish(tk, buf)
					published[w] = append(published[w], tk)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	want := slices.Concat(published...)
	slices.Sort(want)
	if !slices.Equal(admitted, want) {
		t.Fatalf("admitted %d tickets, published %d; or out of ticket order", len(admitted), len(want))
	}
}
