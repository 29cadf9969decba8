package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkvserver"
	"swisstm/internal/txkvwire"
)

// TestStormAbandonsBacklog: a storm lasts as long as it says. A worker
// facing a backlog it could not carry in many times the storm's duration
// stops at the end and leaves the rest queued.
func TestStormAbandonsBacklog(t *testing.T) {
	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine: harness.EngineSpec{Kind: "swisstm"}, Keys: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	tokens := make(chan time.Time, 10_000)
	for len(tokens) < cap(tokens) {
		tokens <- start
	}
	close(tokens)
	w := &stormWorker{codes: map[txkvwire.Code]uint64{}}
	w.run(srv.Addr().String(), tokens, start.Add(50*time.Millisecond))
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("a 50ms storm took %v", took)
	}
	if len(tokens) == 0 || w.issued == 0 {
		t.Fatalf("%d tokens left, %d writes issued: want a backlog abandoned after some work", len(tokens), w.issued)
	}
}

// TestLaunchReportsEarlyExit: a server that dies before it listens is
// reported at once and with its exit status, not after the portfile
// deadline as a server that "never wrote" it.
func TestLaunchReportsEarlyExit(t *testing.T) {
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip(err)
	}
	start := time.Now()
	_, err = launch(bin, "swisstm", filepath.Join(t.TempDir(), "wal"))
	if err == nil || !strings.Contains(err.Error(), "exit status 1") {
		t.Fatalf("launch of %s: %v, want its exit status", bin, err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("noticed the exit after %v", took)
	}
}

func TestWriterOracle(t *testing.T) {
	w := writer{issued: 9, acked: 7}
	for _, c := range []struct {
		v     uint64
		found bool
		ok    bool
	}{{7, true, true}, {9, true, true}, {6, true, false}, {10, true, false}, {0, false, false}} {
		if err := w.survived(0, c.v, c.found); (err == nil) != c.ok {
			t.Errorf("acked 7, issued 9, read %d (found %v): %v", c.v, c.found, err)
		}
	}
	if err := (writer{issued: 3}).survived(0, 0, false); err != nil {
		t.Errorf("a writer never acknowledged proves nothing: %v", err)
	}
}
