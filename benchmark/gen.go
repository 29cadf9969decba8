package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// Input generation. Everything the workloads feed the system is drawn
// here from -seed, before timing starts, into per-caller rings; the
// system under test receives only the generated operations. The
// generator is the benchmark's own (not the repo's util.Dist) so that a
// later change to the repo cannot alter the inputs it is measured on.

// rng is xorshift64*.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed gives every (workload, epoch, caller) its own stream.
func deriveSeed(base uint64, label string, epoch, caller int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := splitmix(base ^ h.Sum64())
	x = splitmix(x ^ uint64(epoch)<<32 ^ uint64(caller))
	if x == 0 {
		x = 1
	}
	return x
}

// zipf draws ranks in [0, n) with frequency ∝ 1/(rank+1)^theta from the
// exact inverse CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.cdf[n-1] = 1
	return z
}

func (z *zipf) next(r *rng) int {
	return sort.SearchFloat64s(z.cdf, r.float())
}

// ringLen is the length of a caller's pre-generated operation ring; a
// caller whose quota is longer walks it again from the start.
const ringLen = 1 << 16

// Kinds of service operation. A CAS is the optimistic client pattern:
// one Get, then one CAS against the value read (two requests).
const (
	kindGet uint8 = iota
	kindPut
	kindCAS
)

// kvOp is one pre-generated service operation. The value written is not
// part of the ring: it is minted from a per-caller counter at issue
// time so that every written value is unique (the last-write oracle
// needs that).
type kvOp struct {
	kind uint8
	key  uint64
}

// genUpdateHeavy draws the 48 get / 42 put / 10 CAS mix over keys
// 1..keys with zipfian popularity.
func genUpdateHeavy(seed uint64, z *zipf, n int) []kvOp {
	r := newRng(seed)
	ops := make([]kvOp, n)
	for i := range ops {
		roll := r.intn(100)
		switch {
		case roll < 48:
			ops[i].kind = kindGet
		case roll < 90:
			ops[i].kind = kindPut
		default:
			ops[i].kind = kindCAS
		}
		ops[i].key = uint64(z.next(r) + 1)
	}
	return ops
}

// transferKeys is the number of distinct keys one transfer touches.
const transferKeys = 4

// genTransfers draws n transfers of transferKeys distinct zipfian keys
// each, laid out back to back.
func genTransfers(seed uint64, z *zipf, n int) []word {
	r := newRng(seed)
	keys := make([]word, 0, n*transferKeys)
	for i := 0; i < n; i++ {
		base := len(keys)
		for len(keys) < base+transferKeys {
			k := word(z.next(r) + 1)
			dup := false
			for _, e := range keys[base:] {
				if e == k {
					dup = true
					break
				}
			}
			if !dup {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// streamBytes serialises a ring, for the determinism test.
func streamBytes(ops []kvOp) []byte {
	b := make([]byte, 0, len(ops)*9)
	for _, op := range ops {
		b = append(b, op.kind)
		b = binary.LittleEndian.AppendUint64(b, op.key)
	}
	return b
}
