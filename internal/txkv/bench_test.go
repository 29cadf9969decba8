package txkv_test

import (
	"sync/atomic"
	"testing"

	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/txkv"
	"swisstm/internal/util"
)

// Hot-path micro-benchmarks for the KV operations on SwissTM, so
// regressions in the store layout or the engine's object-API wrapper
// show up in `go test -bench` history: parallel workers, each with its
// own engine thread and RNG. The Obs twins of Get and Put run the same
// body on an engine with per-transaction telemetry armed, which prices
// the instrumentation (DESIGN.md §11) until a per-layer metric does:
//
//	go test -run '^$' -bench 'TxKV(Get|Put)' ./internal/txkv

const benchKeys = 4096

// benchStore pre-fills a store on a fresh SwissTM engine; a non-nil o
// arms the engine's per-transaction telemetry.
func benchStore(b *testing.B, o *obs.TxnObs) (stm.STM, *txkv.Store) {
	b.Helper()
	e := swisstm.New(swisstm.Config{ArenaWords: 1 << 22, TableBits: 18, Obs: o})
	th := e.NewThread(0)
	s := txkv.New(th, txkv.ConfigForKeys(benchKeys))
	for base := 1; base <= benchKeys; base += 256 {
		end := base + 256
		if end > benchKeys+1 {
			end = benchKeys + 1
		}
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for k := base; k < end; k++ {
				s.Put(tx, stm.Word(k), stm.Word(k))
			}
		})
	}
	return e, s
}

// benchParallel runs op on all workers, each with its own engine thread
// and private RNG.
func benchParallel(b *testing.B, e stm.STM, op func(th stm.Thread, rng *util.Rand)) {
	var tid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(tid.Add(1))
		th := e.NewThread(id)
		rng := util.NewRand(uint64(id)*977 + 13)
		for pb.Next() {
			op(th, rng)
		}
	})
}

func benchGet(b *testing.B, o *obs.TxnObs) {
	b.ReportAllocs()
	e, s := benchStore(b, o)
	zipf := util.NewZipf(benchKeys, 0.99)
	benchParallel(b, e, func(th stm.Thread, rng *util.Rand) {
		k := stm.Word(zipf.Next(rng) + 1)
		stm.AtomicVoid(th, func(tx stm.Tx) { s.Get(tx, k) })
	})
}

func benchPut(b *testing.B, o *obs.TxnObs) {
	b.ReportAllocs()
	e, s := benchStore(b, o)
	zipf := util.NewZipf(benchKeys, 0.99)
	benchParallel(b, e, func(th stm.Thread, rng *util.Rand) {
		k := stm.Word(zipf.Next(rng) + 1)
		stm.AtomicVoid(th, func(tx stm.Tx) { s.Put(tx, k, k) })
	})
}

func BenchmarkTxKVGetSwissTM(b *testing.B)    { benchGet(b, nil) }
func BenchmarkTxKVGetSwissTMObs(b *testing.B) { benchGet(b, obs.NewTxnObs()) }
func BenchmarkTxKVPutSwissTM(b *testing.B)    { benchPut(b, nil) }
func BenchmarkTxKVPutSwissTMObs(b *testing.B) { benchPut(b, obs.NewTxnObs()) }

func BenchmarkTxKVCASSwissTM(b *testing.B) {
	e, s := benchStore(b, nil)
	zipf := util.NewZipf(benchKeys, 0.99)
	benchParallel(b, e, func(th stm.Thread, rng *util.Rand) {
		k := stm.Word(zipf.Next(rng) + 1)
		var cur stm.Word
		var ok bool
		stm.AtomicVoid(th, func(tx stm.Tx) { cur, ok = s.Get(tx, k) })
		if ok {
			stm.AtomicVoid(th, func(tx stm.Tx) { s.CAS(tx, k, cur, cur+1) })
		}
	})
}

func BenchmarkTxKVTransferSwissTM(b *testing.B) {
	e, s := benchStore(b, nil)
	zipf := util.NewZipf(benchKeys, 0.99)
	benchParallel(b, e, func(th stm.Thread, rng *util.Rand) {
		buf := [4]stm.Word{}
		n := 0
		for n < len(buf) {
			c := stm.Word(zipf.Next(rng) + 1)
			dup := false
			for _, e := range buf[:n] {
				if e == c {
					dup = true
					break
				}
			}
			if !dup {
				buf[n] = c
				n++
			}
		}
		stm.AtomicVoid(th, func(tx stm.Tx) { s.Transfer(tx, buf[:], 1) })
	})
}

func BenchmarkTxKVScanShardSwissTM(b *testing.B) {
	e, s := benchStore(b, nil)
	benchParallel(b, e, func(th stm.Thread, rng *util.Rand) {
		sh := rng.Intn(s.Shards())
		stm.AtomicVoid(th, func(tx stm.Tx) { s.SumShard(tx, sh) })
	})
}
