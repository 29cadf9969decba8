package stmtest

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"swisstm/internal/stm"
)

// The read-set dedup tests shared by the engines that deduplicate with a
// per-thread stripe bitmap (SwissTM, TinySTM; DESIGN.md §7.1). Each
// engine's dedup_test.go supplies the probe and calls in.

// ReadSetProbe gives these tests eyes inside one thread's transaction
// descriptor. All functions are called on the goroutine that runs the
// thread's transactions.
type ReadSetProbe struct {
	// LogLen is the length of the thread's read log.
	LogLen func() int
	// SetBits is the number of bits set in the thread's dedup bitmap.
	SetBits func() int
	// Sweep walks the read log of the attempt in progress and checks the
	// snapshot invariant a dedup hit rests on: (I) every logged version is
	// ≤ the snapshot timestamp; (II) a logged stripe whose current word is
	// unlocked and ≤ the snapshot timestamp still holds the logged word;
	// and the log holds exactly one entry per stripe, each with its bit
	// set.
	Sweep func() error
	// Kill marks the thread's running transaction killed, as a contention
	// manager's victim is; nil on an engine whose CM never kills.
	Kill func()
}

func modeName(ro bool) string {
	if ro {
		return "read-only"
	}
	return "read-write"
}

// runMode runs body as one transaction through AtomicROErr when ro and
// AtomicErr otherwise, retrying as they do. A read-write body also gets
// its Tx as w; a read-only body gets nil there.
func runMode(th stm.Thread, ro bool, body func(tx stm.TxRO, w stm.Tx) error) error {
	if ro {
		_, err := stm.AtomicROErr(th, func(tx stm.TxRO) (struct{}, error) { return struct{}{}, body(tx, nil) })
		return err
	}
	_, err := stm.AtomicErr(th, func(tx stm.Tx) (struct{}, error) { return struct{}{}, body(tx, tx) })
	return err
}

const (
	staleTraversal = 5000 // stripes the polluting attempt reads
	staleFresh     = 100  // distinct stripes the following transactions read
)

// DedupNoStaleBits proves that no way of ending an attempt leaks a bit
// into the next one. A stale bit would be a silent opacity hole: the next
// transaction would take its first read of that stripe for a re-read and
// never log it. For each ending — commit, validation abort, CM kill,
// Restart, a body error, a foreign panic, each in read-only and read-write
// mode where the mode allows it — an attempt first reads 5 000 stripes and
// then ends that way; the attempt that follows on the same descriptor, in
// either mode, must begin with an empty log and an all-zero bitmap and log
// exactly N entries for N distinct stripes read twice. A thread registered
// again under the same id must start from a fresh bitmap. mk builds an
// engine with 2^tableBits lock-table entries, 4-word stripes and room for
// 5 001 four-word objects; at 4 bits the bitmap is a single word and the
// traversal's stripes alias onto 16 entries.
func DedupNoStaleBits(t *testing.T, mk func(tableBits uint) stm.STM, probe func(stm.Thread) ReadSetProbe) {
	for _, tableBits := range []uint{4, 13} {
		t.Run(fmt.Sprintf("TableBits%d", tableBits), func(t *testing.T) {
			e := mk(tableBits)
			th, other := e.NewThread(0), e.NewThread(1)
			p := probe(th)
			hs := make([]stm.Handle, staleTraversal)
			for i := range hs {
				hs[i] = alloc(other, 4)
			}
			mine := alloc(other, 4) // a stripe for the attempt to own
			entries := 1 << tableBits
			distinct := min(staleTraversal+1, entries) // mine is logged too
			fresh := min(staleFresh, entries-4)

			// traverse pollutes: the whole structure read, one stripe of it
			// twice, and (read-write mode) one stripe owned.
			traverse := func(tx stm.TxRO, w stm.Tx) {
				for _, h := range hs {
					tx.ReadField(h, 0)
				}
				tx.ReadField(mine, 0)
				tx.ReadField(hs[0], 1)
				if got := p.LogLen(); got != distinct {
					t.Fatalf("traversal logged %d entries, want %d", got, distinct)
				}
				if w != nil {
					w.WriteField(mine, 0, 1)
				}
			}
			// freshBody is the attempt after: clean at entry, one entry per
			// distinct stripe at exit.
			freshBody := func(tx stm.TxRO, what string) {
				if l, b := p.LogLen(), p.SetBits(); l != 0 || b != 0 {
					t.Fatalf("after %s: attempt begins with %d log entries and %d bits set, want 0 and 0", what, l, b)
				}
				for rep := 0; rep < 2; rep++ {
					for _, h := range hs[:fresh] {
						tx.ReadField(h, 0)
					}
				}
				if l, b := p.LogLen(), p.SetBits(); l != fresh || b != fresh {
					t.Fatalf("after %s: %d distinct stripes read twice logged %d entries and set %d bits", what, fresh, l, b)
				}
			}
			errBody := errors.New("body error")
			type ending struct {
				name string
				// end finishes the polluted first attempt; it returns the
				// error the body returns, or does not return at all.
				end func(tx stm.TxRO) error
				ro  []bool // the modes it is tried in: read-only or not
			}
			both := []bool{true, false}
			endings := []ending{
				{"commit", func(stm.TxRO) error { return nil }, both},
				{"validation abort", func(tx stm.TxRO) error {
					stm.AtomicVoid(other, func(o stm.Tx) { o.WriteField(hs[0], 0, o.ReadField(hs[0], 0)+1) })
					tx.ReadField(hs[0], 0)
					t.Fatal("re-read of an overwritten stripe did not abort")
					return nil
				}, both},
				{"Restart", func(tx stm.TxRO) error { tx.Restart(); return nil }, both},
				{"body error", func(stm.TxRO) error { return errBody }, both},
				{"foreign panic", func(stm.TxRO) error { panic("boom") }, both},
			}
			if p.Kill != nil {
				endings = append(endings, ending{"CM kill", func(tx stm.TxRO) error {
					p.Kill()
					tx.ReadField(hs[1], 0)
					t.Fatal("read by a killed transaction did not abort")
					return nil
				}, []bool{false}})
			}
			for _, end := range endings {
				for _, ro := range end.ro {
					for _, next := range both {
						what := fmt.Sprintf("%s in a %s attempt, then a %s one", end.name, modeName(ro), modeName(next))
						attempt := 0
						func() {
							defer func() {
								if r := recover(); r != nil && r != "boom" {
									panic(r)
								}
							}()
							err := runMode(th, ro, func(tx stm.TxRO, w stm.Tx) error {
								if attempt++; attempt == 1 {
									traverse(tx, w)
									return end.end(tx)
								}
								freshBody(tx, what+", the retry")
								return nil
							})
							if err != nil && err != errBody {
								t.Fatalf("%s: the transaction returned %v", what, err)
							}
						}()
						for _, m := range []bool{next, !next} {
							if err := runMode(th, m, func(tx stm.TxRO, _ stm.Tx) error { freshBody(tx, what); return nil }); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}

			// The last transaction's bits stay set until th begins again; a
			// thread taking over the id must not inherit them.
			if p.SetBits() == 0 {
				t.Fatal("test premise: the committed transaction's bits are cleared lazily")
			}
			again := e.NewThread(0)
			p = probe(again)
			if b := p.SetBits(); b != 0 {
				t.Fatalf("re-registered thread starts with %d bits set", b)
			}
			stm.AtomicVoid(again, func(tx stm.Tx) { freshBody(tx, "re-registration") })
		})
	}
}

// DedupExtendThenConflict is the pair of deterministic cases that tell
// "the sampled version is within the snapshot" apart from "the sampled
// word equals the logged word", in both modes. (a) Log S; a foreign commit
// to an unrelated stripe U; read U, which forces a timestamp extension;
// re-read S: a dedup hit — S is unchanged and the extended snapshot covers
// it — with no abort. (b) A foreign commit to S; re-read S: a read-time
// validation abort, never a hit.
func DedupExtendThenConflict(t *testing.T, e stm.STM) {
	thA, thB := e.NewThread(0), e.NewThread(1)
	s, u := alloc(thA, 4), alloc(thA, 4)
	bump := func(h stm.Handle) {
		stm.AtomicVoid(thB, func(tx stm.Tx) { tx.WriteField(h, 0, tx.ReadField(h, 0)+1) })
	}
	for _, ro := range []bool{true, false} {
		before := thA.Stats()
		attempt := 0
		err := runMode(thA, ro, func(tx stm.TxRO, _ stm.Tx) error {
			if attempt++; attempt > 1 {
				return nil
			}
			tx.ReadField(s, 0)
			bump(u)
			tx.ReadField(u, 0)
			ext := thA.Stats()
			if ext.Validations != before.Validations+1 {
				t.Errorf("%s: reading a stripe committed after begin ran %d validations, want 1", modeName(ro), ext.Validations-before.Validations)
			}
			tx.ReadField(s, 0)
			hit := thA.Stats()
			if hit.ReadsDeduped != ext.ReadsDeduped+1 || hit.Aborts != ext.Aborts {
				t.Errorf("%s: re-read after an extension: ReadsDeduped +%d, Aborts +%d, want +1 and +0",
					modeName(ro), hit.ReadsDeduped-ext.ReadsDeduped, hit.Aborts-ext.Aborts)
			}
			bump(s)
			tx.ReadField(s, 0)
			t.Errorf("%s: re-read of an overwritten stripe did not abort", modeName(ro))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		after := thA.Stats()
		if attempt != 2 || after.AbortsValidRead != before.AbortsValidRead+1 || after.ReadsDeduped != before.ReadsDeduped+1 {
			t.Errorf("%s: %d attempts, AbortsValidRead +%d, ReadsDeduped +%d; want 2, +1, +1",
				modeName(ro), attempt, after.AbortsValidRead-before.AbortsValidRead, after.ReadsDeduped-before.ReadsDeduped)
		}
	}
}

// DedupSnapshotInvariant checks the invariant itself under contention
// (and, run with -race, under the race detector): two writers commit to
// a hot set of 64 stripes while a reader walks it at random — first reads,
// which may extend the snapshot, interleaved with re-reads — in
// alternating read-only and read-write transactions, and at random points
// inside the body sweeps its own read log (ReadSetProbe.Sweep). The reader
// is bounded by attempts, not commits: under this much write traffic most
// of its attempts abort, and the sweeps inside them are the test.
func DedupSnapshotInvariant(t *testing.T, e stm.STM, probe func(stm.Thread) ReadSetProbe) {
	const hot, writers, steps = 64, 2, 96
	budget := 20000
	if testing.Short() || raceEnabled {
		budget = 2000
	}
	th0 := e.NewThread(0)
	hs := make([]stm.Handle, hot)
	for i := range hs {
		hs[i] = alloc(th0, 4)
	}
	private := alloc(th0, 4)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 2)
			seed := uint64(id)*2654435761 + 12345
			for !stop.Load() {
				seed = seed*6364136223846793005 + 1
				h := hs[(seed>>33)%hot]
				stm.AtomicVoid(th, func(tx stm.Tx) { tx.WriteField(h, 0, tx.ReadField(h, 0)+1) })
				runtime.Gosched()
			}
		}(w)
	}

	th := e.NewThread(1)
	p := probe(th)
	errDone := errors.New("attempt budget spent")
	var bad error
	attempts, sweeps := 0, 0
	seed := uint64(977)
	for n := 0; attempts < budget && bad == nil; n++ {
		err := runMode(th, n%2 == 1, func(tx stm.TxRO, w stm.Tx) error {
			if attempts++; attempts > budget {
				return errDone
			}
			if w != nil {
				w.WriteField(private, 0, stm.Word(n))
			}
			for i := 0; i < steps; i++ {
				seed = seed*6364136223846793005 + 1
				tx.ReadField(hs[(seed>>33)%hot], 0)
				if (seed>>20)%8 == 0 {
					sweeps++
					if bad = p.Sweep(); bad != nil {
						return bad
					}
				}
				if (seed>>40)%steps == 0 {
					runtime.Gosched() // about once per attempt: a writer commits mid-body even on one CPU
				}
			}
			return nil
		})
		if err != nil && err != errDone && err != bad {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if bad != nil {
		t.Fatalf("after %d attempts, %d sweeps: %v", attempts, sweeps, bad)
	}
	s := th.Stats()
	if sweeps == 0 || s.Validations == 0 || s.ReadsDeduped == 0 {
		t.Fatalf("test premise: %d sweeps, %d validations, %d dedup hits — the reader never exercised the path", sweeps, s.Validations, s.ReadsDeduped)
	}
	t.Logf("%d attempts, %d commits, %d sweeps, %d validations, %d dedup hits, %d read-time validation aborts",
		attempts, s.Commits, sweeps, s.Validations, s.ReadsDeduped, s.AbortsValidRead)
}
