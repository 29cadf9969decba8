// Command txkvserver serves the transactional key-value store over TCP
// (DESIGN.md §10): length-prefixed binary frames, one goroutine per
// connection, every request one v2 transaction against the selected
// engine. It pre-fills keys 1..keys with the starting balance so the
// load harness's balance-conservation oracle has a known baseline, and
// serves until interrupted.
//
// With -wal it keeps a durable commit log (DESIGN.md §12): mutations
// are acknowledged only after their redo record reaches the log, and a
// restart on the same directory replays the log's clean prefix before
// serving. SIGINT/SIGTERM drain gracefully — in-flight requests finish
// and are acked durably before the process exits.
//
// Usage:
//
//	txkvserver -addr 127.0.0.1:7070 -engine swisstm -keys 4096
//	txkvserver -addr :0 -engine rstm -cm polka -threads 16
//	txkvserver -addr :7070 -admin 127.0.0.1:7071   # /metrics, /statz, /debug/pprof/*
//	txkvserver -addr :7070 -wal /var/lib/txkv/wal -fsync group
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvserver"
	"swisstm/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "TCP listen address (use :0 for an ephemeral port)")
		engine   = flag.String("engine", "swisstm", "engine kind: "+strings.Join(harness.Kinds, " | "))
		manager  = flag.String("cm", "polka", "RSTM contention manager")
		keys     = flag.Int("keys", 4096, "pre-filled key population (keys 1..n)")
		balance  = flag.Uint64("balance", uint64(txkv.DefaultBalance), "starting value per pre-filled key")
		threads  = flag.Int("threads", 8, "engine thread pool size")
		admin    = flag.String("admin", "", "admin HTTP listen address for /metrics, /statz and /debug/pprof (off when empty; bind to loopback — unauthenticated)")
		walDir   = flag.String("wal", "", "durable commit log directory (off when empty; an existing log is replayed before serving)")
		fsync    = flag.String("fsync", "group", "commit log durability: group | none")
		readTO   = flag.Duration("read-timeout", 0, "per-connection idle read timeout (0 = no limit)")
		writeTO  = flag.Duration("write-timeout", 30*time.Second, "per-reply write timeout (0 = no limit)")
		portFile = flag.String("portfile", "", "write the bound data address to this file once listening (for harnesses using :0)")
		maxConns = flag.Int("max-conns", 0, "connection cap: excess connections get one Overloaded frame and close (0 = unlimited)")
		maxQueue = flag.Int("max-queue", 0, "admission queue cap: requests arriving at a full queue are shed Overloaded (0 = unlimited)")
		maxWait  = flag.Duration("max-queue-wait", 0, "bound on one request's wait for an engine thread before it is shed Overloaded (0 = unlimited)")
		pipeline = flag.Int("pipeline", 16, "coalesced items one connection may have in flight (unused with -coalesce-batch 0)")
		coBatch  = flag.Int("coalesce-batch", 0, "per-shard commit coalescing: max single-key ops per batched transaction (0 = off)")
	)
	flag.Parse()
	specs, err := harness.ParseKinds(*engine, *manager)
	if err != nil || len(specs) != 1 {
		fmt.Fprintf(os.Stderr, "txkvserver: -engine %q: want one of %s\n", *engine, strings.Join(harness.Kinds, ", "))
		os.Exit(2)
	}
	mode, err := wal.ParseSyncMode(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvserver:", err)
		os.Exit(2)
	}

	srv, err := txkvserver.Start(*addr, txkvserver.Config{
		Engine:        specs[0],
		Keys:          *keys,
		Balance:       stm.Word(*balance),
		Threads:       *threads,
		Admin:         *admin,
		WALDir:        *walDir,
		WALSync:       mode,
		ReadTimeout:   *readTO,
		WriteTimeout:  *writeTO,
		MaxConns:      *maxConns,
		MaxQueue:      *maxQueue,
		MaxQueueWait:  *maxWait,
		Pipeline:      *pipeline,
		CoalesceBatch: *coBatch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvserver:", err)
		os.Exit(1)
	}
	fmt.Printf("txkvserver: engine=%s keys=%d listening on %s\n", srv.Engine(), *keys, srv.Addr())
	if a := srv.AdminAddr(); a != nil {
		fmt.Printf("txkvserver: admin on http://%s (/metrics, /statz, /debug/pprof)\n", a)
	}
	if *walDir != "" {
		info := srv.WalRecovery()
		fmt.Printf("txkvserver: wal dir=%s fsync=%s recovered=%d frames (truncated=%v)\n",
			*walDir, mode, info.Frames, info.Truncated)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(srv.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "txkvserver: portfile:", err)
			srv.Close()
			os.Exit(1)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("txkvserver: draining")
		if err := srv.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "txkvserver:", err)
			os.Exit(1)
		}
	case <-srv.Done():
		// The accept loop died while we were supposed to be serving:
		// report it and exit non-zero instead of lingering uselessly.
		fmt.Fprintln(os.Stderr, "txkvserver: accept:", srv.Err())
		srv.Close()
		os.Exit(1)
	}
}
