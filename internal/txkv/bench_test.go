package txkv_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"swisstm/internal/obs"
	"swisstm/internal/stm"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
	"swisstm/internal/txkv"
	"swisstm/internal/util"
)

// Hot-path micro-benchmarks for the KV operations, so regressions in the
// store layout or an engine's object-API read and write show up in
// `go test -bench` history: parallel workers, each with its own engine
// thread and RNG. Get, Put and Transfer run on SwissTM, TinySTM and TL2;
// CAS and ScanShard on SwissTM. The Obs twins of Get and Put run the same
// body on a SwissTM engine with per-transaction telemetry armed, which
// prices the instrumentation (DESIGN.md §11) until a per-layer metric does:
//
//	go test -run '^$' -bench 'TxKV(Get|Put|Transfer)' ./internal/txkv

const benchKeys = 4096

// swissTM is the benchmarks' SwissTM engine; a non-nil o arms its
// per-transaction telemetry. tinySTM and tl2Engine are the other two word
// engines at the same size.
func swissTM(o *obs.TxnObs) stm.STM {
	return swisstm.New(swisstm.Config{ArenaWords: 1 << 22, TableBits: 18, Obs: o})
}
func tinySTM() stm.STM   { return tinystm.New(tinystm.Config{ArenaWords: 1 << 22, TableBits: 18}) }
func tl2Engine() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 22, TableBits: 18}) }

// benchStore pre-fills a store on the fresh engine e.
func benchStore(b *testing.B, e stm.STM) *txkv.Store {
	b.Helper()
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
	return s
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

func benchGet(b *testing.B, e stm.STM) {
	b.ReportAllocs()
	s := benchStore(b, e)
	zipf := util.NewZipf(benchKeys, 0.99)
	benchParallel(b, e, func(th stm.Thread, rng *util.Rand) {
		k := stm.Word(zipf.Next(rng) + 1)
		stm.AtomicVoid(th, func(tx stm.Tx) { s.Get(tx, k) })
	})
}

func benchPut(b *testing.B, e stm.STM) {
	b.ReportAllocs()
	s := benchStore(b, e)
	zipf := util.NewZipf(benchKeys, 0.99)
	benchParallel(b, e, func(th stm.Thread, rng *util.Rand) {
		k := stm.Word(zipf.Next(rng) + 1)
		stm.AtomicVoid(th, func(tx stm.Tx) { s.Put(tx, k, k) })
	})
}

func BenchmarkTxKVGetSwissTM(b *testing.B)    { benchGet(b, swissTM(nil)) }
func BenchmarkTxKVGetSwissTMObs(b *testing.B) { benchGet(b, swissTM(obs.NewTxnObs())) }
func BenchmarkTxKVGetTinySTM(b *testing.B)    { benchGet(b, tinySTM()) }
func BenchmarkTxKVGetTL2(b *testing.B)        { benchGet(b, tl2Engine()) }
func BenchmarkTxKVPutSwissTM(b *testing.B)    { benchPut(b, swissTM(nil)) }
func BenchmarkTxKVPutSwissTMObs(b *testing.B) { benchPut(b, swissTM(obs.NewTxnObs())) }
func BenchmarkTxKVPutTinySTM(b *testing.B)    { benchPut(b, tinySTM()) }
func BenchmarkTxKVPutTL2(b *testing.B)        { benchPut(b, tl2Engine()) }

func BenchmarkTxKVCASSwissTM(b *testing.B) {
	e := swissTM(nil)
	s := benchStore(b, e)
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

func BenchmarkTxKVTransferSwissTM(b *testing.B) { benchTransfer(b, swissTM(nil)) }
func BenchmarkTxKVTransferTinySTM(b *testing.B) { benchTransfer(b, tinySTM()) }
func BenchmarkTxKVTransferTL2(b *testing.B)     { benchTransfer(b, tl2Engine()) }

// benchTransfer moves one unit among four distinct zipfian keys.
func benchTransfer(b *testing.B, e stm.STM) {
	s := benchStore(b, e)
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

// BenchmarkNewInitialized prices the prefill that every server start and
// every recovery runs, per engine, at the in-process transfer population
// and at the service's; ns/key is the per-layer txkv.prefill_ns_per_key.
// Each iteration builds on a fresh engine, whose construction is untimed.
//
//	go test -run '^$' -bench NewInitialized ./internal/txkv
func BenchmarkNewInitialized(b *testing.B) {
	for _, spec := range engineSpecs {
		for _, keys := range []int{1024, 65536} {
			spec := spec
			spec.ArenaWords = 16 * keys // the slot table takes 8 words per key
			b.Run(fmt.Sprintf("%s/%d", spec.DisplayName(), keys), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					th := spec.New().NewThread(0)
					b.StartTimer()
					txkv.NewInitialized(th, keys, 1000)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
			})
		}
	}
}

func BenchmarkTxKVScanShardSwissTM(b *testing.B) {
	e := swissTM(nil)
	s := benchStore(b, e)
	benchParallel(b, e, func(th stm.Thread, rng *util.Rand) {
		sh := rng.Intn(s.Shards())
		stm.AtomicVoid(th, func(tx stm.Tx) { s.SumShard(tx, sh) })
	})
}
