// Package util holds small shared runtime helpers: a fast per-thread PRNG
// and the back-off primitives used by the contention managers.
package util

import (
	"runtime"
	"sync"
)

// Rand is a xorshift64* pseudo-random generator. Each worker thread owns
// one, so random numbers on the transaction hot path never contend on
// shared state (math/rand's global source would).
type Rand struct{ s uint64 }

// NewRand returns a generator seeded with seed (0 is mapped to a fixed
// non-zero constant, since xorshift must not start at 0).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{s: seed}
}

// Next returns the next 64 bits of the sequence.
func (r *Rand) Next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Float64 returns a pseudo-random float in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Next()>>11) / (1 << 53) }

// SpinIterations busy-spins for approximately n loop iterations. It is the
// building block of the back-off schemes: short enough waits must not enter
// the scheduler, which would cost far more than the wait itself.
func SpinIterations(n int) {
	for i := 0; i < n; i++ {
		spinHint()
	}
}

//go:noinline
func spinHint() {}

// BackoffLinear waits a random duration that grows linearly with attempt,
// the randomized linear back-off SwissTM applies after rollbacks
// (Algorithm 2, cm-on-rollback). All four engines back off on it.
func BackoffLinear(r *Rand, attempt int) {
	const unit = 512 // spin budget per successive abort
	if attempt <= 0 {
		return
	}
	n := r.Intn(attempt*unit + 1)
	// Donate the time slice occasionally so that on oversubscribed hosts a
	// spinning transaction cannot starve the lock holder it waits for.
	if attempt > 4 {
		runtime.Gosched()
	}
	SpinIterations(n)
}

// BackoffExp waits a random duration drawn from an exponentially growing
// window (used by the Polka contention manager's wait intervals). attempt
// is clamped so the window cannot overflow.
func BackoffExp(r *Rand, attempt, unit int) {
	if attempt > 16 {
		attempt = 16
	}
	window := unit << uint(attempt)
	if window <= 0 {
		window = unit
	}
	n := r.Intn(window + 1)
	if attempt > 6 {
		runtime.Gosched()
	}
	SpinIterations(n)
}

// Barrier is a reusable cyclic barrier for iterative parallel phases that
// must stay in lock-step (STAMP's kmeans uses pthread barriers the same
// way).
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	round int
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all n parties have arrived, then releases them all.
func (b *Barrier) Await() {
	b.mu.Lock()
	round := b.round
	b.count++
	if b.count == b.n {
		b.count = 0
		b.round++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
