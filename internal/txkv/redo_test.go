package txkv_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/wal"
)

func TestRedoRoundTrip(t *testing.T) {
	records := [][]txkv.RedoEntry{
		{{Op: txkv.RedoInit, Key: 512, Val: 1000}},
		{{Op: txkv.RedoPut, Key: 7, Val: 77}},
		{{Op: txkv.RedoDelete, Key: 7}},
		{{Op: txkv.RedoTransfer, Amount: 5, Keys: []stm.Word{1, 2, 3}}},
		{ // a batch: several entries in one atomic record
			{Op: txkv.RedoPut, Key: 1, Val: 10},
			{Op: txkv.RedoDelete, Key: 2},
			{Op: txkv.RedoTransfer, Amount: 1, Keys: []stm.Word{3, 4}},
		},
	}
	for i, entries := range records {
		buf, err := txkv.AppendRedo(nil, entries)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := txkv.DecodeRedo(buf)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, entries) {
			t.Fatalf("record %d: round trip\n got %+v\nwant %+v", i, got, entries)
		}
	}
}

func TestRedoDecodeRejectsMalformedInput(t *testing.T) {
	valid, _ := txkv.AppendRedo(nil, []txkv.RedoEntry{{Op: txkv.RedoPut, Key: 1, Val: 2}})
	bad := [][]byte{
		{},                   // no count
		{0, 0},               // zero entries
		{1, 0},               // one entry, no body
		{1, 0, 99},           // unknown op
		valid[:len(valid)-1], // truncated entry
		append(valid[:len(valid):len(valid)], 0xff), // trailing garbage
	}
	for i, b := range bad {
		if _, err := txkv.DecodeRedo(b); err == nil {
			t.Fatalf("case %d: DecodeRedo accepted %x", i, b)
		}
	}
	if _, err := txkv.AppendRedo(nil, nil); err == nil {
		t.Fatal("AppendRedo accepted an empty record")
	}
}

// appendRecord encodes and durably appends one redo record.
func appendRecord(t *testing.T, w *wal.Writer, entries []txkv.RedoEntry) {
	t.Helper()
	buf, err := txkv.AppendRedo(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(buf); err != nil {
		t.Fatal(err)
	}
}

func TestReplayWALRebuildsStore(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		dir := t.TempDir()
		const keys, balance = 64, 100
		w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncGroup})
		if err != nil {
			t.Fatal(err)
		}
		appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoInit, Key: keys, Val: balance}})
		appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoPut, Key: 3, Val: 333}})
		appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoTransfer, Amount: 10, Keys: []stm.Word{1, 2, 4}}})
		appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoDelete, Key: 5}})
		appendRecord(t, w, []txkv.RedoEntry{ // batch is atomic
			{Op: txkv.RedoPut, Key: 6, Val: 60},
			{Op: txkv.RedoPut, Key: 200, Val: 60},
		})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		th := e.NewThread(0)
		s, info, err := txkv.ReplayWAL(wal.OSFS{}, dir, th)
		if err != nil {
			t.Fatalf("ReplayWAL: %v", err)
		}
		if s == nil || info.Frames != 5 || info.Truncated {
			t.Fatalf("replay info = %+v (store nil: %v)", info, s == nil)
		}

		want := map[stm.Word]stm.Word{3: 333, 1: balance - 20, 2: balance + 10, 4: balance + 10, 6: 60, 200: 60}
		stm.AtomicVoid(th, func(tx stm.Tx) {
			for k, v := range want {
				got, ok := s.Get(tx, k)
				if !ok || got != v {
					t.Fatalf("replayed Get(%d) = %d,%v; want %d", k, got, ok, v)
				}
			}
			if _, ok := s.Get(tx, 5); ok {
				t.Fatal("deleted key 5 survived replay")
			}
			// 64 seeded − 1 deleted + 1 inserted (3 and 6 overwrote seeds).
			if got, wantLen := s.Len(tx), keys-1+1; got != wantLen {
				t.Fatalf("replayed Len = %d, want %d", got, wantLen)
			}
		})
	})
}

func TestReplayEmptyAndMissingLog(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		s, info, err := txkv.ReplayWAL(wal.OSFS{}, filepath.Join(t.TempDir(), "never-created"), th)
		if err != nil || s != nil || info.Frames != 0 {
			t.Fatalf("missing dir: store=%v info=%+v err=%v", s, info, err)
		}
	})
}

func TestReplayRejectsLogWithoutInit(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoPut, Key: 1, Val: 1}})
	w.Close()
	spec := engineSpecs[0]
	th := spec.New().NewThread(0)
	if _, _, err := txkv.ReplayWAL(wal.OSFS{}, dir, th); err == nil ||
		!strings.Contains(err.Error(), "init record") {
		t.Fatalf("replay of init-less log: %v", err)
	}
}

func TestReplayDivergenceFails(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoInit, Key: 8, Val: 10}})
	appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoDelete, Key: 999}}) // never existed
	w.Close()
	spec := engineSpecs[0]
	th := spec.New().NewThread(0)
	if _, _, err := txkv.ReplayWAL(wal.OSFS{}, dir, th); err == nil ||
		!strings.Contains(err.Error(), "diverged") {
		t.Fatalf("replay of diverged log: %v", err)
	}
}

func TestReplayStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoInit, Key: 8, Val: 10}})
	appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoPut, Key: 1, Val: 11}})
	w.Close()

	// Crash garbage after the last clean frame.
	names, err := os.ReadDir(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("segment listing: %v %v", names, err)
	}
	p := filepath.Join(dir, names[len(names)-1].Name())
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()

	spec := engineSpecs[0]
	th := spec.New().NewThread(0)
	s, info, err := txkv.ReplayWAL(wal.OSFS{}, dir, th)
	if err != nil || s == nil {
		t.Fatalf("replay of torn log: %v", err)
	}
	if !info.Truncated || info.Frames != 2 {
		t.Fatalf("replay info = %+v, want 2 clean frames + truncated", info)
	}
	stm.AtomicVoid(th, func(tx stm.Tx) {
		if v, ok := s.Get(tx, 1); !ok || v != 11 {
			t.Fatalf("clean-prefix Get(1) = %d,%v", v, ok)
		}
	})
}

// replayTwoFrames writes, through the real writer, an init record of keys
// keys and then payload, and replays the log on a SwissTM store whose
// arena holds 1<<16 words. It reports the replay's error, and skips a
// payload the writer refuses.
func replayTwoFrames(t *testing.T, keys uint64, payload []byte) error {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, w, []txkv.RedoEntry{{Op: txkv.RedoInit, Key: stm.Word(keys), Val: 100}})
	if err := w.Append(payload); err != nil {
		w.Close()
		t.Skipf("the writer refuses the payload: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	th := harness.EngineSpec{Kind: "swisstm", ArenaWords: 1 << 16}.New().NewThread(0)
	_, _, err = txkv.ReplayWAL(wal.OSFS{}, dir, th)
	return err
}

// redoPut encodes a one-put record. AppendRedo checks no key, so it
// encodes a sentinel key too.
func redoPut(key stm.Word) []byte {
	b, _ := txkv.AppendRedo(nil, []txkv.RedoEntry{{Op: txkv.RedoPut, Key: key, Val: 1}})
	return b
}

// TestReplayRefusesWhatTheStoreCannotHold: a put of a sentinel key, an
// init population beyond the arena and one beyond any memory are each an
// error naming its frame, not a crash.
func TestReplayRefusesWhatTheStoreCannotHold(t *testing.T) {
	for _, c := range []struct {
		name    string
		keys    uint64
		payload []byte
		frame   string
	}{
		{"sentinel key", 64, redoPut(0), "frame 2"},
		{"over the arena", 1 << 20, redoPut(1), "frame 1"},
		{"over MaxKeys", 1 << 40, redoPut(1), "frame 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := replayTwoFrames(t, c.keys, c.payload); err == nil || !strings.Contains(err.Error(), c.frame) {
				t.Fatalf("replay: %v, want an error naming %s", err, c.frame)
			}
		})
	}
}

// FuzzReplayWAL: recovery of a checksum-valid log — an init record, then
// an arbitrary redo payload — returns a store or an error and never
// crashes the process.
func FuzzReplayWAL(f *testing.F) {
	transfer, _ := txkv.AppendRedo(nil, []txkv.RedoEntry{{Op: txkv.RedoTransfer, Amount: 5, Keys: []stm.Word{1, 2, 3}}})
	f.Add(uint64(64), redoPut(0))
	f.Add(uint64(1<<20), redoPut(1))
	f.Add(uint64(1<<40), redoPut(1))
	f.Add(uint64(64), redoPut(7))
	f.Add(uint64(64), transfer)
	f.Fuzz(func(t *testing.T, keys uint64, payload []byte) {
		replayTwoFrames(t, keys, payload)
	})
}

// TestNewInitializedMatchesPut: the placement pass builds, slot for slot,
// the store that New and then Put of keys 1..n in key order build, on
// every engine and at every population from one key to the service's.
func TestNewInitializedMatchesPut(t *testing.T) {
	const balance = 1000
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		for _, n := range []int{1, 7, 1024, 5000, 65536} {
			placed := txkv.NewInitialized(th, n, balance)
			put := txkv.New(th, txkv.ConfigForKeys(n))
			for lo := 1; lo <= n; lo += 256 {
				stm.AtomicVoid(th, func(tx stm.Tx) {
					for k := lo; k <= min(lo+255, n); k++ {
						put.Put(tx, stm.Word(k), balance)
					}
				})
			}
			if placed.Shards() != put.Shards() || placed.Slots() != put.Slots() {
				t.Fatalf("%d keys: %d×%d slots placed, %d×%d by Put", n, placed.Shards(), placed.Slots(), put.Shards(), put.Slots())
			}
			for sh := 0; sh < put.Shards(); sh++ {
				diff := stm.AtomicRO(th, func(tx stm.TxRO) string {
					for i := 0; i < put.Slots(); i++ {
						pk, pv := placed.SlotAt(tx, sh, i)
						qk, qv := put.SlotAt(tx, sh, i)
						if pk != qk || pv != qv {
							return fmt.Sprintf("shard %d slot %d holds %d→%d, Put built %d→%d", sh, i, pk, pv, qk, qv)
						}
					}
					return ""
				})
				if diff != "" {
					t.Fatalf("%d keys: %s", n, diff)
				}
			}
		}
	})
}

// TestNewInitializedOnlyAllocates: building the service's 65 536-key
// store on a fresh thread commits one allocation transaction per shard
// at most, aborts none and logs no read: every seeded slot is a fresh
// object's initial contents, not a transactional write.
func TestNewInitializedOnlyAllocates(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e stm.STM) {
		th := e.NewThread(0)
		before := th.Stats()
		s := txkv.NewInitialized(th, 65536, 1000)
		after := th.Stats()
		commits, aborts := after.Commits-before.Commits, after.Aborts-before.Aborts
		if reads := after.ReadsLogged - before.ReadsLogged; commits > uint64(s.Shards()) || aborts != 0 || reads != 0 {
			t.Fatalf("%d commits, %d aborts, %d reads logged; want at most %d commits and no abort or read",
				commits, aborts, reads, s.Shards())
		}
	})
}

// TestPlacementShardFullPanicsLikePut: on a table too small for the
// population, the placement pass panics at the key at which Put of keys
// 1..n in order finds its shard full, and with Put's message — the panic
// ReplayWAL turns into an error naming the frame.
func TestPlacementShardFullPanicsLikePut(t *testing.T) {
	cfg := txkv.Config{Shards: 2, Slots: 8}
	th := engineSpecs[0].New().NewThread(0)
	// firstPanic runs fill for n = 1, 2, ... and returns the first n it
	// panics at, with the panic's value.
	firstPanic := func(fill func(n int)) (n int, msg any) {
		for n = 1; n <= 2*cfg.Shards*cfg.Slots; n++ {
			func() {
				defer func() { msg = recover() }()
				fill(n)
			}()
			if msg != nil {
				return n, msg
			}
		}
		t.Fatalf("no panic with %d keys in %d slots", n-1, cfg.Shards*cfg.Slots)
		return
	}
	s := txkv.New(th, cfg)
	putKey, putMsg := firstPanic(func(n int) {
		stm.AtomicVoid(th, func(tx stm.Tx) { s.Put(tx, stm.Word(n), 1) })
	})
	empty := txkv.New(th, cfg)
	placeKey, placeMsg := firstPanic(func(n int) { txkv.Place(empty, n) })
	if m, ok := putMsg.(string); !ok || !strings.Contains(m, "shard full") {
		t.Fatalf("test premise: Put of key %d panicked with %v", putKey, putMsg)
	}
	if placeKey != putKey || placeMsg != putMsg {
		t.Fatalf("placement panicked at key %d with %q; Put at key %d with %q", placeKey, placeMsg, putKey, putMsg)
	}
}
