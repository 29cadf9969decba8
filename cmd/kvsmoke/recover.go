package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/wal"
)

var (
	serverBin  = flag.String("server", "bin/txkvserver", "recover: path to a txkvserver binary (a real process, so SIGKILL is a real crash; go build -o bin/txkvserver ./cmd/txkvserver)")
	warmPeriod = flag.Duration("warm", 200*time.Millisecond, "recover: load duration before the kill")
)

// Small on purpose: what reaches the log before a SIGKILL, four writers
// hammering their own keys show as well as forty.
const (
	crashKeys    = 256
	crashWriters = 4
)

func crashKey(g int) uint64 { return uint64(10_000 + g) }

// server is one launched txkvserver process. exited closes once the
// process is gone and err (cmd.Wait's) is set.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error
}

// launch starts the server binary with the commit log in dir and waits
// for its portfile to announce the bound address — or for the process to
// exit first, which is reported with its exit status instead of being
// waited out.
func launch(bin, kind, dir string) (*server, error) {
	pf := filepath.Join(dir, "..", filepath.Base(dir)+".port")
	os.Remove(pf)
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-engine", kind, "-keys", fmt.Sprint(crashKeys),
		"-wal", dir, "-portfile", pf)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.After(10 * time.Second)
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited before listening: %v", cmd.ProcessState)
		case <-deadline:
			s.kill()
			return nil, fmt.Errorf("server never wrote %s", pf)
		case <-poll.C:
			if b, err := os.ReadFile(pf); err == nil && len(b) > 0 {
				s.addr = strings.TrimSpace(string(b))
				return s, nil
			}
		}
	}
}

// kill SIGKILLs the process — no drain, no flush — and waits it out.
func (s *server) kill() error {
	err := s.cmd.Process.Kill()
	<-s.exited
	return err
}

// recoverGate is the kill/recover durability gate (DESIGN.md §12): it
// launches a real txkvserver process with the commit log on (group
// fsync, the server's default), applies concurrent load over TCP while
// recording the last acknowledged write per client, SIGKILLs the server
// mid-load, and then checks three things:
//
//  1. The log's clean prefix replays without checksum errors
//     (an independent in-process replay, not the server's).
//  2. Every acknowledged write survived: for each client key, the
//     replayed value is between the last acked and last issued write
//     (a later unacked write may legitimately have reached the log).
//  3. A restarted server on the same directory serves exactly the
//     replayed state (per-key values, key count, total balance) —
//     and then shuts down cleanly on SIGTERM.
//
// This is the crash half of the durability contract; the graceful half
// (drain loses nothing) is pinned by the txkvserver tests.
func recoverGate(kind string) error {
	base, err := os.MkdirTemp("", "kvsmoke-recover-"+kind+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	dir := filepath.Join(base, "wal")

	srv, err := launch(*serverBin, kind, dir)
	if err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	defer srv.kill()

	// Load: each writer owns one fresh key (main.go's ledger).
	writers := make([]writer, crashWriters)
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func(w *writer, key uint64) {
			defer wg.Done()
			cl, err := txkvclient.DialRetry(srv.addr, 5*time.Second)
			if err != nil {
				return // the kill can race the dial; the ack check below decides
			}
			defer cl.Close()
			for v := uint64(1); ; v++ {
				w.issued = v
				if _, err := cl.Put(key, v); err != nil {
					return // server is gone
				}
				w.acked = v
			}
		}(&writers[g], crashKey(g))
	}
	time.Sleep(*warmPeriod)
	if err := srv.kill(); err != nil {
		return fmt.Errorf("kill: %w", err)
	}
	wg.Wait()

	var acked uint64
	for _, w := range writers {
		acked += w.acked
	}
	if acked == 0 {
		return fmt.Errorf("no write was acknowledged before the kill; nothing tested (raise -warm)")
	}

	// Independent replay of the log's clean prefix. A checksum or
	// divergence error here is a durability bug, not a torn tail —
	// Recover stops cleanly at those.
	spec := harness.EngineSpec{Kind: kind, Manager: "polka"}
	th := spec.New().NewThread(0)
	store, info, err := txkv.ReplayWAL(wal.OSFS{}, dir, th)
	if err != nil || store == nil {
		return fmt.Errorf("replaying log after crash: %w (store nil: %v)", err, store == nil)
	}
	var replayLen, replaySum uint64
	replayVals := make([]uint64, crashWriters)
	replayFound := make([]bool, crashWriters)
	stm.AtomicVoid(th, func(tx stm.Tx) {
		replayLen = uint64(store.Len(tx))
		replaySum = uint64(store.SumAll(tx))
		for g := range writers {
			v, ok := store.Get(tx, crashKey(g))
			replayVals[g], replayFound[g] = uint64(v), ok
		}
	})
	for g, w := range writers {
		if err := w.survived(g, replayVals[g], replayFound[g]); err != nil {
			return fmt.Errorf("replayed log: %w", err)
		}
	}

	// Restart on the same directory: the server must serve exactly the
	// replayed state.
	srv2, err := launch(*serverBin, kind, dir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer srv2.kill()
	cl, err := txkvclient.DialRetry(srv2.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial restarted server: %w", err)
	}
	defer cl.Close()
	if n, err := cl.Len(); err != nil || n != replayLen {
		return fmt.Errorf("restarted Len = %d (err %v), replay says %d", n, err, replayLen)
	}
	if sum, err := cl.Sum(-1); err != nil || sum != replaySum {
		return fmt.Errorf("restarted Sum = %d (err %v), replay says %d", sum, err, replaySum)
	}
	for g, w := range writers {
		if w.acked == 0 {
			continue
		}
		v, found, err := cl.Get(crashKey(g))
		if err != nil || !found || v != replayVals[g] {
			return fmt.Errorf("writer %d: restarted server has %d/%v (err %v), replay says %d",
				g, v, found, err, replayVals[g])
		}
	}

	// Graceful exit: SIGTERM must drain and exit zero.
	if err := srv2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("sigterm: %w", err)
	}
	if <-srv2.exited; srv2.err != nil {
		return fmt.Errorf("restarted server did not exit cleanly on SIGTERM: %w", srv2.err)
	}

	fmt.Printf("kvsmoke recover: %s: acked=%d frames=%d truncated=%v — all acked writes recovered\n",
		kind, acked, info.Frames, info.Truncated)
	return nil
}
