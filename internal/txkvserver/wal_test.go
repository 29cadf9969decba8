package txkvserver

import (
	"net"
	"sync"
	"testing"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkvclient"
	"swisstm/internal/wal"
)

// startWALServer starts a server with the commit log on. The caller
// owns shutdown (restart tests close explicitly, mid-test).
func startWALServer(t *testing.T, kind, dir string, mode wal.SyncMode, keys int) (*Server, *txkvclient.Client) {
	t.Helper()
	srv, err := Start("127.0.0.1:0", Config{
		Engine:  harness.EngineSpec{Kind: kind, Manager: "polka"},
		Keys:    keys,
		WALDir:  dir,
		WALSync: mode,
	})
	if err != nil {
		t.Fatalf("start %s server with wal: %v", kind, err)
	}
	cl, err := txkvclient.DialRetry(srv.Addr().String(), 5*time.Second)
	if err != nil {
		srv.Close()
		t.Fatalf("dial: %v", err)
	}
	return srv, cl
}

// TestWALRestartRecovery shuts a logging server down and restarts it
// on the same directory with a different (ignored) Keys flag: the
// recovered state must be the log's — every acknowledged mutation,
// and nothing from the failed or read-only ops that log nothing.
func TestWALRestartRecovery(t *testing.T) {
	for _, kind := range engineKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			const keys = 64
			srv, cl := startWALServer(t, kind, dir, wal.SyncGroup, keys)

			if _, err := cl.Put(keys+1, 42); err != nil {
				t.Fatalf("put: %v", err)
			}
			if sw, err := cl.CAS(1, 1000, 1001); err != nil || !sw {
				t.Fatalf("cas hit: %v %v", sw, err)
			}
			if sw, err := cl.CAS(2, 9999, 1); err != nil || sw {
				t.Fatalf("cas miss should fail cleanly: %v %v", sw, err)
			}
			if ex, err := cl.Delete(3); err != nil || !ex {
				t.Fatalf("delete: %v %v", ex, err)
			}
			if ex, err := cl.Delete(keys + 50); err != nil || ex {
				t.Fatalf("delete of absent key: %v %v", ex, err)
			}
			if ok, err := cl.Transfer([]uint64{4, 5, 6}, 7); err != nil || !ok {
				t.Fatalf("transfer: %v %v", ok, err)
			}
			sumBefore, err := cl.Sum(-1)
			if err != nil {
				t.Fatalf("sum: %v", err)
			}
			cl.Close()
			if err := srv.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// Restart on the same log; Keys=8 must be overridden by it.
			srv2, cl2 := startWALServer(t, kind, dir, wal.SyncGroup, 8)
			defer srv2.Close()
			defer cl2.Close()
			if info := srv2.WalRecovery(); info.Frames < 5 || info.Truncated {
				t.Fatalf("recovery info = %+v, want >=5 clean frames", info)
			}
			checks := map[uint64]uint64{
				uint64(keys + 1): 42,
				1:                1001,
				2:                1000, // CAS miss logged nothing
				4:                1000 - 2*7,
				5:                1000 + 7,
			}
			for k, want := range checks {
				if v, found, err := cl2.Get(k); err != nil || !found || v != want {
					t.Fatalf("recovered Get(%d) = %d,%v,%v; want %d", k, v, found, err, want)
				}
			}
			if _, found, _ := cl2.Get(3); found {
				t.Fatal("deleted key 3 came back after recovery")
			}
			if sum, err := cl2.Sum(-1); err != nil || sum != sumBefore {
				t.Fatalf("recovered sum %d, want %d (err %v)", sum, sumBefore, err)
			}
			st, err := cl2.Stats()
			if err != nil || st.WalRecovered == 0 {
				t.Fatalf("recovered-frame counter empty after replay: %+v %v", st, err)
			}
		})
	}
}

// TestWALFramesMatchAckedMutations pins what gets logged: one frame
// per acknowledged mutating request (plus the init frame), none for
// reads or failed conditionals.
func TestWALFramesMatchAckedMutations(t *testing.T) {
	dir := t.TempDir()
	srv, cl := startWALServer(t, "swisstm", dir, wal.SyncGroup, 32)
	defer srv.Close()
	defer cl.Close()

	if _, err := cl.Put(40, 1); err != nil {
		t.Fatal(err)
	}
	cl.Get(1)       // read: no frame
	cl.CAS(1, 7, 8) // miss: no frame
	cl.Delete(999)  // absent: no frame
	if _, err := cl.Sum(-1); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Frame 1 is the init record, frame 2 the put.
	if st.WalFrames != 2 {
		t.Fatalf("WalFrames = %d, want 2 (init + one put)", st.WalFrames)
	}
	if st.WalBytes == 0 || st.WalNs == 0 {
		t.Fatalf("wal byte/latency counters empty: %+v", st)
	}
}

// TestDrainLosesNoAckedOps hammers a draining server from several
// connections and checks, after a restart on the same log, that every
// acknowledged put survived — the graceful-shutdown half of the
// durability contract (the crash half is the gate of cmd/kvsmoke recover).
func TestDrainLosesNoAckedOps(t *testing.T) {
	dir := t.TempDir()
	const clients = 4
	srv, cl := startWALServer(t, "tl2", dir, wal.SyncGroup, 32)
	cl.Close()

	lastAcked := make([]uint64, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := txkvclient.DialRetry(srv.Addr().String(), 5*time.Second)
			if err != nil {
				t.Errorf("client %d: dial: %v", g, err)
				return
			}
			defer cl.Close()
			key := uint64(100 + g)
			for v := uint64(1); ; v++ {
				if _, err := cl.Put(key, v); err != nil {
					return // drained out from under us; stop at the last ack
				}
				lastAcked[g] = v
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	srv2, cl2 := startWALServer(t, "tl2", dir, wal.SyncGroup, 32)
	defer srv2.Close()
	defer cl2.Close()
	for g := 0; g < clients; g++ {
		if lastAcked[g] == 0 {
			t.Fatalf("client %d never got an ack; drain raced the whole run", g)
		}
		v, found, err := cl2.Get(uint64(100 + g))
		if err != nil || !found {
			t.Fatalf("client %d: recovered Get: %v %v", g, found, err)
		}
		// A drained shutdown serves every in-flight request to
		// completion, so the recovered value is exactly the last ack.
		if v != lastAcked[g] {
			t.Fatalf("client %d: recovered %d, last acked %d", g, v, lastAcked[g])
		}
	}
}

// TestWALPublishFailureUnacksWrite poisons the log with an injected
// fsync error and checks the client sees an error (not a false ack)
// and the server stays up for reads.
func TestWALPublishFailureUnacksWrite(t *testing.T) {
	dir := t.TempDir()
	// Syncs 1..3 happen at startup (segment create, init append, init
	// barrier); sync 4 is the first put's.
	ffs := &wal.FaultFS{Base: wal.OSFS{}, FailSync: 4}
	srv, err := Start("127.0.0.1:0", Config{
		Engine:  harness.EngineSpec{Kind: "swisstm", Manager: "polka"},
		Keys:    16,
		WALDir:  dir,
		WALSync: wal.SyncGroup,
		WALFS:   ffs,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	cl, err := txkvclient.DialRetry(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	if _, err := cl.Put(20, 1); err == nil {
		t.Fatal("put acked despite failed log append")
	}
	if _, err := cl.Put(21, 1); err == nil {
		t.Fatal("put acked on a poisoned log")
	}
	if v, found, err := cl.Get(1); err != nil || !found || v != 1000 {
		t.Fatalf("reads should survive a poisoned log: %d %v %v", v, found, err)
	}
}

// TestReadTimeoutDropsIdleConn pins Config.ReadTimeout: an idle
// connection is closed once no frame arrives within the window.
func TestReadTimeoutDropsIdleConn(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{
		Engine:      harness.EngineSpec{Kind: "swisstm", Manager: "polka"},
		Keys:        16,
		ReadTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still open past the read timeout")
	}
}

// TestAcceptErrorSurfaces kills the listener out from under a live
// server and checks Done fires with a non-nil Err — the hook main
// uses to exit non-zero instead of serving nothing forever.
func TestAcceptErrorSurfaces(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{
		Engine: harness.EngineSpec{Kind: "swisstm", Manager: "polka"},
		Keys:   16,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	srv.ln.Close() // simulate the listener dying while the server runs
	select {
	case <-srv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("accept failure did not close Done")
	}
	if srv.Err() == nil {
		t.Fatal("Done closed with nil Err")
	}
}
