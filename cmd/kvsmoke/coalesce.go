package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/txkvwire"
	"swisstm/internal/wal"
)

const (
	coalKeys      = 512
	coalOpsOpen   = 1200
	coalOpsClosed = 600
	coalOpsUnary  = 500
)

// subResult is one shard tailer's complete observation: every event
// streamed until the server's drain closed the feed.
type subResult struct {
	shard  int
	events []txkvwire.FeedEvent
	err    error
}

// coalesceGate is the commit-coalescing gate (DESIGN.md §14): it starts
// an in-process txkvserver with per-shard commit coalescing on, the
// durable commit log in group-fsync mode, and the admin surface bound;
// subscribes a change-feed tailer to every shard from sequence 1 BEFORE
// any load; then drives pipelined load over real TCP — an open-loop
// update-heavy run through the coalesced path and a closed-loop transfer
// run for the balance-conservation oracle. It fails on:
//
//   - a violated over-the-wire oracle (key population, balance
//     conservation),
//   - a lost or duplicated reply (completed ops != offered ops, or any
//     shed reply in a run structurally below every admission limit),
//   - a coalesced path that never engaged (no batches flushed),
//   - a lone request that waits for company: unary Gets on one idle
//     connection with a p50 of 1ms or more (a flush timer's signature —
//     the batcher must run a lone item as soon as its worker wakes),
//   - a feed subscriber that misses an event, sees one twice or out of
//     commit order (non-contiguous sequences, or a replay of the feed
//     that disagrees with the store's final state),
//   - a subscriber still stalled 10s after the server drained, and
//   - a /metrics page without a positive batch-size histogram.
func coalesceGate(kind string) error {
	walDir, err := os.MkdirTemp("", "kvsmoke-coalesce-"+kind+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)

	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine:        harness.EngineSpec{Kind: kind, Manager: "polka"},
		Keys:          coalKeys,
		Admin:         "127.0.0.1:0",
		WALDir:        walDir,
		WALSync:       wal.SyncGroup,
		Pipeline:      16,
		CoalesceBatch: 16,
	})
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	shards := txkv.ConfigForKeys(coalKeys).Shards

	// Tail every shard's feed from sequence 1, before any load: the
	// subscribers must observe the full history.
	subc := make(chan subResult, shards)
	for sh := 0; sh < shards; sh++ {
		sub, err := txkvclient.DialSubscribe(addr, sh, 1)
		if err != nil {
			return fmt.Errorf("subscribe shard %d: %w", sh, err)
		}
		go func(sh int, sub *txkvclient.Sub) {
			defer sub.Close()
			var evs []txkvwire.FeedEvent
			for {
				batch, err := sub.Next()
				if errors.Is(err, txkvclient.ErrFeedClosed) {
					subc <- subResult{shard: sh, events: evs}
					return
				}
				if err != nil {
					subc <- subResult{shard: sh, err: err}
					return
				}
				evs = append(evs, batch...)
			}
		}(sh, sub)
	}

	// The runs go through 2 pipelined connections of window 16 unless they
	// say otherwise; a run that loses or duplicates a reply, or fails its
	// oracle, fails the gate.
	load := func(what string, cfg txkvclient.LoadConfig) (txkvclient.Result, error) {
		cfg.Addr, cfg.Keys = addr, coalKeys
		if cfg.Conns == 0 {
			cfg.Conns, cfg.Pipeline = 2, 16
		}
		res, err := txkvclient.Run(cfg)
		switch {
		case err != nil:
			return res, fmt.Errorf("%s run: %w", what, err)
		case res.OracleErr != nil:
			return res, fmt.Errorf("%s oracle: %w", what, res.OracleErr)
		case res.Ops != cfg.Ops:
			return res, fmt.Errorf("lost or duplicated reply: completed %d of %d %s ops", res.Ops, cfg.Ops, what)
		}
		return res, nil
	}

	// Open-loop update-heavy load through the coalesced path. This run
	// sits structurally below every admission limit (2 conns × window
	// 16 in flight vs a 256-deep shard queue, no TTL, no drain), so a
	// single shed reply is a bug, not an overload.
	open, err := load("open-loop", txkvclient.LoadConfig{
		Mix: txkv.UpdateHeavy, Ops: coalOpsOpen, Rate: 6000, Seed: 1, LateThreshold: time.Millisecond,
	})
	if err != nil {
		return err
	}
	if open.ErrOps != 0 {
		return fmt.Errorf("%d shed replies in a run below every admission limit", open.ErrOps)
	}
	if open.Server.CoalesceBatches == 0 || open.Server.CoalesceItems < open.Server.CoalesceBatches {
		return fmt.Errorf("coalescing never engaged: batches=%d items=%d",
			open.Server.CoalesceBatches, open.Server.CoalesceItems)
	}

	// Unary Gets on one connection, one at a time: each is a lone item on
	// an idle shard, and reads skip the group fsync, so what is left of
	// its latency is the wire and one batcher hand-off.
	unary, err := load("unary", txkvclient.LoadConfig{Mix: txkv.ReadOnly, Ops: coalOpsUnary, Seed: 3, Conns: 1, Pipeline: 1})
	if err != nil {
		return err
	}
	if unary.Server.CoalesceItems < coalOpsUnary {
		return fmt.Errorf("unary Gets bypassed the batchers: %d coalesced items for %d Gets", unary.Server.CoalesceItems, coalOpsUnary)
	}
	if p50 := time.Duration(unary.P50Ns); p50 >= time.Millisecond {
		return fmt.Errorf("unary Get p50 %v on one idle connection, want under 1ms: a lone item waited for a batch", p50)
	}

	// Closed-loop transfers arm the balance-conservation oracle over
	// the same pipelined wire, interleaving the pooled multi-key path's
	// feed publications with the coalescer's.
	if _, err := load("transfer", txkvclient.LoadConfig{Mix: txkv.TransferMix, Ops: coalOpsClosed, Seed: 2}); err != nil {
		return err
	}

	// The store's final state, read before drain: the feed replay must
	// reproduce it exactly.
	final, err := readStore(addr)
	if err != nil {
		return err
	}

	// The batch-size histogram is the coalescer's primary observable.
	body, err := httpGet("http://" + srv.AdminAddr().String() + "/metrics")
	if err != nil {
		return err
	}
	const series = "\ntxkv_coalesce_batch_size_count " // unlabelled, an integer
	if !strings.Contains(body, series) || strings.Contains(body, series+"0\n") {
		return errors.New("/metrics without a positive txkv_coalesce_batch_size_count")
	}

	// Drain: remaining feed events flush to the subscribers, then each
	// stream ends with a Draining frame.
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	// Exactly-once, in commit order: per shard the sequences must be
	// contiguous from 1, and replaying every event over the pre-filled
	// state must land exactly on the store's final state.
	state := make(map[uint64]uint64, coalKeys)
	for k := uint64(1); k <= coalKeys; k++ {
		state[k] = uint64(txkv.DefaultBalance)
	}
	total := 0
	timeout := time.After(10 * time.Second)
	for n := 0; n < shards; n++ {
		var r subResult
		select {
		case r = <-subc:
		case <-timeout:
			return fmt.Errorf("stalled feed subscriber: %d of %d shards finished within 10s of drain", n, shards)
		}
		if r.err != nil {
			return fmt.Errorf("shard %d subscriber: %w", r.shard, r.err)
		}
		for i, e := range r.events {
			if e.Seq != uint64(i)+1 {
				return fmt.Errorf("shard %d: event %d has seq %d, want %d (lost, duplicated or reordered feed event)",
					r.shard, i, e.Seq, i+1)
			}
			if e.Del {
				delete(state, e.Key)
			} else {
				state[e.Key] = e.Val
			}
		}
		total += len(r.events)
	}
	if total == 0 {
		return errors.New("no feed events observed across any shard")
	}
	if len(state) != len(final) {
		return fmt.Errorf("feed replay has %d keys, store has %d", len(state), len(final))
	}
	for k, v := range final {
		if rv, ok := state[k]; !ok || rv != v {
			return fmt.Errorf("feed replay diverges from store at key %d: replay=(%d,%v) store=%d", k, rv, ok, v)
		}
	}
	return nil
}

// readStore fetches every pre-filled key's current value over a plain
// synchronous connection.
func readStore(addr string) (map[uint64]uint64, error) {
	c, err := txkvclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	final := make(map[uint64]uint64, coalKeys)
	for k := uint64(1); k <= coalKeys; k++ {
		v, found, err := c.Get(k)
		if err != nil {
			return nil, fmt.Errorf("final read of key %d: %w", k, err)
		}
		if found {
			final[k] = v
		}
	}
	return final, nil
}
