package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"swisstm/internal/obs"
)

func openTest(t *testing.T, opts Options) *Writer {
	t.Helper()
	w, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

// collect recovers dir and returns the info plus copied payloads.
func collect(t *testing.T, fs FS, dir string) (RecoverInfo, [][]byte) {
	t.Helper()
	if fs == nil {
		fs = OSFS{}
	}
	var payloads [][]byte
	info, err := Recover(fs, dir, func(lsn uint64, p []byte) error {
		if lsn != uint64(len(payloads))+1 {
			t.Fatalf("recover delivered LSN %d, want %d", lsn, len(payloads)+1)
		}
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return info, payloads
}

func payload(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncGroup})
	const n = 50
	for i := 1; i <= n; i++ {
		if err := w.Append(payload(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if got := w.LastLSN(); got != n {
		t.Fatalf("LastLSN = %d, want %d", got, n)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	info, got := collect(t, nil, dir)
	if info.Truncated || info.Frames != n || info.LastLSN != n {
		t.Fatalf("recover info = %+v, want %d clean frames", info, n)
	}
	for i := 1; i <= n; i++ {
		if !bytes.Equal(got[i-1], payload(i)) {
			t.Fatalf("frame %d = %q, want %q", i, got[i-1], payload(i))
		}
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir})
	for i := 1; i <= 10; i++ {
		if err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	w = openTest(t, Options{Dir: dir})
	for i := 11; i <= 20; i++ {
		if err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	info, got := collect(t, nil, dir)
	if info.Frames != 20 {
		t.Fatalf("frames = %d, want 20 (info %+v)", info.Frames, info)
	}
	for i := range got {
		if !bytes.Equal(got[i], payload(i+1)) {
			t.Fatalf("frame %d = %q", i+1, got[i])
		}
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	const n = 100
	for i := 1; i <= n; i++ {
		if err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, err := listSegments(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	info, got := collect(t, nil, dir)
	if info.Frames != n || info.Segments != len(segs) || info.Truncated {
		t.Fatalf("recover info = %+v over %d segments", info, len(segs))
	}
	if !bytes.Equal(got[n-1], payload(n)) {
		t.Fatalf("last frame = %q", got[n-1])
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir})
	for i := 1; i <= 5; i++ {
		if err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a crash mid-append: garbage at the end of the segment.
	segs, _ := listSegments(OSFS{}, dir)
	p := filepath.Join(dir, segs[len(segs)-1].name)
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe})
	f.Close()

	info, _ := collect(t, nil, dir)
	if !info.Truncated || info.Frames != 5 {
		t.Fatalf("recover of torn log = %+v, want 5 clean frames + truncated", info)
	}

	// Open repairs the tail and appends continue cleanly after it.
	w = openTest(t, Options{Dir: dir})
	if err := w.Append(payload(6)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	info, got := collect(t, nil, dir)
	if info.Truncated || info.Frames != 6 {
		t.Fatalf("post-repair recover = %+v, want 6 clean frames", info)
	}
	if !bytes.Equal(got[5], payload(6)) {
		t.Fatalf("frame 6 = %q", got[5])
	}
}

func TestBitFlipStopsRecovery(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir})
	for i := 1; i <= 10; i++ {
		if err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := listSegments(OSFS{}, dir)
	p := filepath.Join(dir, segs[0].name)
	data, _ := os.ReadFile(p)
	// Flip one bit inside the 4th frame's payload.
	off := SegMagicLen + 3*frameSize(len(payload(1))) + frameHdrLen + 2
	data[off] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, got := collect(t, nil, dir)
	if !info.Truncated || info.Frames != 3 {
		t.Fatalf("recover after bit flip = %+v, want exactly 3 clean frames", info)
	}
	for i := range got {
		if !bytes.Equal(got[i], payload(i+1)) {
			t.Fatalf("clean prefix frame %d = %q", i+1, got[i])
		}
	}
}

func TestOutOfOrderPublishKeepsTicketOrder(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncGroup})
	t1, t2, t3 := w.Reserve(), w.Reserve(), w.Reserve()

	var wg sync.WaitGroup
	pub := func(tk Ticket, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Publish(tk, payload(i)); err != nil {
				t.Errorf("publish %d: %v", i, err)
			}
		}()
	}
	pub(t3, 3) // arrives first, must be held back
	time.Sleep(5 * time.Millisecond)
	pub(t2, 2)
	time.Sleep(5 * time.Millisecond)
	pub(t1, 1)
	wg.Wait()
	w.Close()

	_, got := collect(t, nil, dir)
	if len(got) != 3 {
		t.Fatalf("got %d frames, want 3", len(got))
	}
	for i := 1; i <= 3; i++ {
		if !bytes.Equal(got[i-1], payload(i)) {
			t.Fatalf("LSN %d holds %q, want %q (ticket order violated)", i, got[i-1], payload(i))
		}
	}
}

func TestAbandonUnblocksSequencer(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncGroup})
	t1, t2 := w.Reserve(), w.Reserve()

	done := make(chan error, 1)
	go func() { done <- w.Publish(t2, payload(2)) }()
	select {
	case err := <-done:
		t.Fatalf("publish of t2 completed before t1 was finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.Abandon(t1)
	if err := <-done; err != nil {
		t.Fatalf("publish after abandon: %v", err)
	}
	w.Close()

	info, got := collect(t, nil, dir)
	if info.Frames != 1 || !bytes.Equal(got[0], payload(2)) {
		t.Fatalf("recover = %+v %q, want 1 frame from t2 at LSN 1", info, got)
	}
}

func TestSyncNoneAcksImmediatelyAndSyncFlushes(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncNone})
	for i := 1; i <= 25; i++ {
		if err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Everything admitted before Sync must already be on disk, before
	// Close.
	info, _ := collect(t, nil, dir)
	if info.Frames != 25 || info.Truncated {
		t.Fatalf("recover after Sync = %+v, want 25 clean frames", info)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishSyncNoneDoesNotAllocate: in steady state a publish that does
// not wait for durability costs no allocation — the frame is encoded
// into the pending buffer, header included, and the log goroutine hands
// its written buffer back as the next spare.
func TestPublishSyncNoneDoesNotAllocate(t *testing.T) {
	w := openTest(t, Options{Dir: t.TempDir(), Sync: SyncNone})
	defer w.Close()
	p := payload(1)
	got := testing.AllocsPerRun(2000, func() {
		if err := w.Publish(w.Reserve(), p); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("%.2f allocations per Publish under SyncNone, want 0", got)
	}
}

func TestInjectedShortWritePoisonsWriterAndKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	// Write call 1 = magic of segment 1. Let two batches through,
	// tear the third.
	ffs := &FaultFS{Base: OSFS{}, FailWrite: 4, ShortWrite: true}
	w := openTest(t, Options{Dir: dir, FS: ffs, Sync: SyncGroup})
	var acked int
	var failed bool
	for i := 1; i <= 10; i++ {
		err := w.Append(payload(i))
		if err == nil {
			if failed {
				t.Fatalf("append %d succeeded after a write failure (sticky error lost)", i)
			}
			acked++
			continue
		}
		failed = true
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("append %d: err %v, want the sticky injected error", i, err)
		}
	}
	if !failed {
		t.Fatal("fault never fired")
	}
	w.Close()

	// Recovery must deliver exactly the acked frames, then stop at the
	// torn half-frame without error.
	info, got := collect(t, nil, dir)
	if int(info.Frames) != acked {
		t.Fatalf("recovered %d frames, acked %d (info %+v)", info.Frames, acked, info)
	}
	if !info.Truncated {
		t.Fatalf("torn write not detected: %+v", info)
	}
	for i := range got {
		if !bytes.Equal(got[i], payload(i+1)) {
			t.Fatalf("frame %d = %q", i+1, got[i])
		}
	}
}

func TestInjectedFsyncErrorFailsPublish(t *testing.T) {
	dir := t.TempDir()
	// Sync call 1 = segment creation. Fail the second fsync (first
	// batch commit).
	ffs := &FaultFS{Base: OSFS{}, FailSync: 2}
	w := openTest(t, Options{Dir: dir, FS: ffs, Sync: SyncGroup})
	if err := w.Append(payload(1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under fsync fault: %v, want ErrInjected", err)
	}
	if err := w.Append(payload(2)); err == nil {
		t.Fatal("append after sticky fsync failure succeeded")
	}
	w.Close()
}

func TestSegmentGapStopsRecovery(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 1; i <= 60; i++ {
		if err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := listSegments(OSFS{}, dir)
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Delete a middle segment: recovery keeps the prefix before the
	// gap and never replays past it.
	if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
		t.Fatal(err)
	}
	wantFrames := segs[1].first - 1
	info, _ := collect(t, nil, dir)
	if !info.Truncated || info.Frames != wantFrames {
		t.Fatalf("recover with gap = %+v, want %d frames then stop", info, wantFrames)
	}
	// Open removes the unreachable tail and keeps working.
	w = openTest(t, Options{Dir: dir})
	if err := w.Append([]byte("after-gap")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	info, got := collect(t, nil, dir)
	if info.Truncated || info.Frames != wantFrames+1 {
		t.Fatalf("post-repair recover = %+v", info)
	}
	if !bytes.Equal(got[len(got)-1], []byte("after-gap")) {
		t.Fatalf("tail frame = %q", got[len(got)-1])
	}
}

func TestConcurrentPublishAbandonStress(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, Options{Dir: dir, Sync: SyncGroup, SegmentBytes: 4096})
	const workers = 8
	const perWorker = 100
	published := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tk := w.Reserve()
				if (g+i)%5 == 0 { // a fifth of attempts "abort"
					w.Abandon(tk)
					continue
				}
				if err := w.Publish(tk, payload(int(tk.seq))); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
				published[g] = append(published[g], tk.seq)
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var want int
	for _, p := range published {
		want += len(p)
	}
	info, got := collect(t, nil, dir)
	if int(info.Frames) != want || info.Truncated {
		t.Fatalf("recovered %d frames, want %d (info %+v)", info.Frames, want, info)
	}
	// Frames must appear in strictly increasing ticket order: the
	// payload encodes the ticket seq.
	var prev int
	for i, p := range got {
		var seq int
		if _, err := fmt.Sscanf(string(p), "record-%04d", &seq); err != nil {
			t.Fatalf("frame %d: unexpected payload %q", i+1, p)
		}
		if seq <= prev {
			t.Fatalf("frame %d: ticket %d out of order after %d", i+1, seq, prev)
		}
		prev = seq
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
	}{{"group", SyncGroup}, {"none", SyncNone}} {
		got, err := ParseSyncMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("SyncMode(%q).String() = %q", tc.in, got.String())
		}
	}
	for _, bad := range []string{"always", "sometimes"} {
		_, err := ParseSyncMode(bad)
		if err == nil || !strings.Contains(err.Error(), "group") || !strings.Contains(err.Error(), "none") {
			t.Fatalf("ParseSyncMode(%q) = %v, want an error naming group and none", bad, err)
		}
	}
}

// holdFS is the real filesystem with a gate on fsync. Once armed, the
// first File.Sync blocks until release is closed, and every Write and
// Sync call is counted.
type holdFS struct {
	OSFS
	held, release chan struct{}

	mu            sync.Mutex
	armed         bool
	writes, syncs int
}

type holdFile struct {
	File
	fs *holdFS
}

func (h *holdFS) Create(path string) (File, error) {
	f, err := h.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &holdFile{f, h}, nil
}

func (f *holdFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	if f.fs.armed {
		f.fs.writes++
	}
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

func (f *holdFile) Sync() error {
	h := f.fs
	h.mu.Lock()
	hold := h.armed && h.syncs == 0
	if h.armed {
		h.syncs++
	}
	h.mu.Unlock()
	if hold {
		close(h.held)
		<-h.release
	}
	return f.File.Sync()
}

// TestGroupFormsWhileFsyncBusy pins group commit: frames published
// while a group's fsync is in progress leave together as the next
// group, in one write and one fsync.
func TestGroupFormsWhileFsyncBusy(t *testing.T) {
	fs := &holdFS{held: make(chan struct{}), release: make(chan struct{})}
	w := openTest(t, Options{Dir: t.TempDir(), FS: fs, Sync: SyncGroup})
	defer w.Close()
	fs.mu.Lock()
	fs.armed = true // the segment is open: count from here
	fs.mu.Unlock()

	errs := make(chan error, 4)
	go func() { errs <- w.Append(payload(1)) }()
	<-fs.held // frame 1 is written and its fsync is in progress
	for i := 2; i <= 4; i++ {
		go func() { errs <- w.Append(payload(i)) }()
	}
	for w.LastLSN() != 4 { // frames 2–4 admitted behind the busy fsync
		runtime.Gosched()
	}
	close(fs.release)
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatalf("append: %v", err)
		}
	}

	fs.mu.Lock()
	writes, syncs := fs.writes, fs.syncs
	fs.mu.Unlock()
	if writes != 2 || syncs != 2 {
		t.Fatalf("%d writes and %d fsyncs for frame 1 and the three behind it, want 2 and 2", writes, syncs)
	}
	h := w.m.BatchFrames.Snapshot()
	if h.Count != 2 || h.Buckets[obs.BucketIndex(1)] != 1 || h.Buckets[obs.BucketIndex(3)] != 1 {
		t.Fatalf("wal_batch_size count=%d sum=%d, want the groups {1, 3}", h.Count, h.Sum)
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, lsn := range []uint64{1, 255, 1 << 40, ^uint64(0)} {
		name := segmentName(lsn)
		got, ok := parseSegmentName(name)
		if !ok || got != lsn {
			t.Fatalf("parseSegmentName(%q) = %d, %v", name, got, ok)
		}
	}
	for _, bad := range []string{"wal-.seg", "wal-00000000000000zz.seg", "foo", "wal-0000000000000001.tmp"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Fatalf("parseSegmentName(%q) accepted", bad)
		}
	}
}

func TestWrongDirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	// A segment claiming to start at LSN 7 with no predecessors is not
	// a recoverable log — refuse loudly rather than silently erase.
	if err := os.WriteFile(filepath.Join(dir, segmentName(7)), segMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(OSFS{}, dir, nil); err == nil {
		t.Fatal("Recover accepted a log with a missing prefix")
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a log with a missing prefix")
	}
}
