package util

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give the same sequence")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Next() == 0 && r.Next() == 0 {
		t.Fatal("zero seed must still produce a live sequence")
	}
}

func TestIntnBounds(t *testing.T) {
	check := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRand(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandRoughUniformity(t *testing.T) {
	r := NewRand(11)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10*8/10 || b > n/10*12/10 {
			t.Fatalf("bucket %d has %d/%d draws; generator is badly skewed", i, b, n)
		}
	}
}

func TestBackoffTerminates(t *testing.T) {
	r := NewRand(1)
	for attempt := 0; attempt < 30; attempt++ {
		BackoffLinear(r, attempt)
		BackoffExp(r, attempt, 64)
	}
	// Overflow guard: enormous attempts must not wrap into huge spins.
	BackoffExp(r, 1<<30, 64)
}

func TestBarrier(t *testing.T) {
	const parties = 4
	const rounds = 50
	b := NewBarrier(parties)
	counter := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				counter++
				mu.Unlock()
				b.Await()
				// After the barrier, all parties of this round have
				// incremented: counter is a multiple of parties.
				mu.Lock()
				c := counter
				mu.Unlock()
				if c < (r+1)*parties {
					t.Errorf("barrier released early: counter=%d round=%d", c, r)
				}
				b.Await()
			}
		}()
	}
	wg.Wait()
	if counter != parties*rounds {
		t.Fatalf("counter = %d, want %d", counter, parties*rounds)
	}
}

// TestStripeSet: membership follows TestAndSet/Remove bit for bit, at the
// one-word size of a 16-entry lock table and at a multi-word size.
func TestStripeSet(t *testing.T) {
	for _, entries := range []int{16, 1 << 10} {
		s := NewStripeSet(entries)
		if want := (entries + 63) / 64; len(s) != want {
			t.Fatalf("%d entries: %d words, want %d", entries, len(s), want)
		}
		for idx := uint32(0); idx < uint32(entries); idx += 3 {
			if s.TestAndSet(idx) {
				t.Fatalf("%d entries: fresh index %d reported present", entries, idx)
			}
			if !s.TestAndSet(idx) {
				t.Fatalf("%d entries: index %d absent right after it was added", entries, idx)
			}
		}
		for idx := uint32(0); idx < uint32(entries); idx++ {
			if got, want := s.TestAndSet(idx), idx%3 == 0; got != want {
				t.Fatalf("%d entries: index %d present = %v, want %v", entries, idx, got, want)
			}
			s.Remove(idx)
		}
		for i, w := range s {
			if w != 0 {
				t.Fatalf("%d entries: word %d = %#x after removing every index", entries, i, w)
			}
		}
	}
}
