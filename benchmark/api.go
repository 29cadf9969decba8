package main

// The frozen surface. This is the only file of the benchmark that imports
// packages of the repository: every repo symbol the benchmark calls is
// named here once, as an alias or a one-line forwarder, and the rest of
// the benchmark is written against these names. A later change may not
// edit the benchmark, so this list is the API such a change has to keep.
//
// Every symbol and field used (package: symbols):
//
//	harness:    EngineSpec{Kind, ArenaWords}.New
//	stm:        STM.{Arena, NewThread}, Thread.Stats, Tx, TxRO, Word, Atomic,
//	            AtomicRO, Stats{Commits, ROCommits, Aborts, WaitsCM,
//	            ReadsLogged, ReadsDeduped, ValidationReads}
//	mem:        Arena.{Used, Cap} (through STM.Arena, nil on the object-based
//	            engine)
//	util:       NewRand (the RNG Bench.NewOps takes)
//	bench7:     ReadWrite, Setup, Bench.{NewOps, Check}, Ops.Op
//	txkv:       NewInitialized, Store.{Get, Put, CAS, Transfer, SumAll, Len,
//	            Shards}
//	txkvserver: Start, Config{Engine, Keys, Balance, Threads, WALDir, WALSync,
//	            CoalesceBatch, CoalesceWait}, Server.{Addr, Drain}
//	txkvclient: Dial, Client.{Do, Close}, DialPipe(addr, window),
//	            Pipe.{Submit(req, tag, first, last), Recv() (tag, last, reply,
//	            err), Release, Close}
//	txkvwire:   Req{Op, Key, Val, Old, Sub}, Reply{Op, Err, Found, Val, OK,
//	            Sub, Stats}, Stats{Requests, Sheds, ParseNs, QueueNs, TxnNs,
//	            CommitNs, WalNs, ReplyNs, Commits, Aborts, WalFrames,
//	            WalBytes, CoalesceBatches, CoalesceItems, FeedEvents},
//	            OpGet/OpPut/OpCAS/OpLen/OpBatch/OpStats, MaxBatch, AppendReq,
//	            DecodeReq, AppendReply, DecodeReply, WriteFrame, ReadFrame
//	wal:        Open, Options{Dir, Sync}, SyncNone, Writer.{Append, Close}
//	coalesce:   New(store, threads, log, feeds, Config{BatchSize, MaxWait}),
//	            NewItem(op, key, val, old, deadline), OpPut,
//	            Coalescer.{Enqueue() (code, message), Close}, Item.Done

import (
	"io"
	"time"

	"swisstm/internal/bench7"
	"swisstm/internal/coalesce"
	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/txkvwire"
	"swisstm/internal/util"
	"swisstm/internal/wal"
)

type (
	engine      = stm.STM
	thread      = stm.Thread
	engineStats = stm.Stats
	tx          = stm.Tx
	txRO        = stm.TxRO
	word        = stm.Word

	bench7Bench = bench7.Bench
	bench7Ops   = bench7.Ops

	kvStore = txkv.Store

	server    = txkvserver.Server
	client    = txkvclient.Client
	pipe      = txkvclient.Pipe
	wireReq   = txkvwire.Req
	wireReply = txkvwire.Reply
	wireStats = txkvwire.Stats

	walWriter = wal.Writer
	coalescer = coalesce.Coalescer
	coItem    = coalesce.Item
)

const (
	opGet   = txkvwire.OpGet
	opPut   = txkvwire.OpPut
	opCAS   = txkvwire.OpCAS
	opLen   = txkvwire.OpLen
	opBatch = txkvwire.OpBatch
	opStats = txkvwire.OpStats

	maxWireBatch = txkvwire.MaxBatch
)

// newEngine builds one engine of the given kind ("swisstm", "tl2",
// "tinystm", "rstm") over an arena of arenaWords words.
func newEngine(kind string, arenaWords int) engine {
	return harness.EngineSpec{Kind: kind, ArenaWords: arenaWords}.New()
}

// The two transaction entry points, instantiated for the result types
// the benchmark's pre-bound bodies return.
func atomicBool(th thread, body func(tx) bool) bool     { return stm.Atomic(th, body) }
func atomicROWord(th thread, body func(txRO) word) word { return stm.AtomicRO(th, body) }

// bench7.
func bench7Setup(e engine) *bench7Bench { return bench7.Setup(e, bench7.ReadWrite) }
func bench7NewOps(b *bench7Bench, th thread, seed uint64) *bench7Ops {
	return b.NewOps(th, util.NewRand(seed))
}

// txkv.
func kvNewInitialized(th thread, keys int, balance word) *kvStore {
	return txkv.NewInitialized(th, keys, balance)
}

// txkvserver. A positive coalesceBatch turns the per-shard batchers on.
func serverStart(kind string, arenaWords, keys int, balance word, threads int, walDir string, coalesceBatch int, coalesceWait time.Duration) (*server, error) {
	return txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine:        harness.EngineSpec{Kind: kind, ArenaWords: arenaWords},
		Keys:          keys,
		Balance:       balance,
		Threads:       threads,
		WALDir:        walDir,
		WALSync:       wal.SyncNone,
		CoalesceBatch: coalesceBatch,
		CoalesceWait:  coalesceWait,
	})
}

// txkvclient.
func clientDial(addr string) (*client, error)             { return txkvclient.Dial(addr) }
func pipeDial(addr string, window int) (*pipe, error)     { return txkvclient.DialPipe(addr, window) }
func wireAppendReq(dst []byte, r wireReq) ([]byte, error) { return txkvwire.AppendReq(dst, r) }
func wireDecodeReq(p []byte) (wireReq, error)             { return txkvwire.DecodeReq(p) }
func wireAppendReply(dst []byte, r wireReply) ([]byte, error) {
	return txkvwire.AppendReply(dst, r)
}
func wireDecodeReply(p []byte) (wireReply, error)           { return txkvwire.DecodeReply(p) }
func wireWriteFrame(w io.Writer, p []byte) error            { return txkvwire.WriteFrame(w, p) }
func wireReadFrame(r io.Reader, buf []byte) ([]byte, error) { return txkvwire.ReadFrame(r, buf) }

// wal.
func walOpen(dir string) (*walWriter, error) {
	return wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone})
}

// coalesce, stand-alone: no commit log and no feeds, so what is timed is
// the batcher and its engine transaction.
func coalesceNew(store *kvStore, threads []thread, batch int, wait time.Duration) *coalescer {
	return coalesce.New(store, threads, nil, nil, coalesce.Config{BatchSize: batch, MaxWait: wait})
}
func coalescePut(key, val word) *coItem {
	return coalesce.NewItem(coalesce.OpPut, key, val, 0, time.Time{})
}
