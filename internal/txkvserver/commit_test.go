package txkvserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"swisstm/internal/coalesce"
	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvwire"
	"swisstm/internal/wal"
)

// The commit scope (DESIGN.md §12.2) serves both execution paths. These
// tests compare, after a drain, the three records of what committed: the
// store, the per-shard feeds and the commit log.

// storeImage scans st on th.
func storeImage(th stm.Thread, st *txkv.Store) map[uint64]uint64 {
	img := make(map[uint64]uint64)
	stm.AtomicRO(th, func(tx stm.TxRO) int {
		clear(img)
		st.ForEach(tx, func(k, v stm.Word) bool {
			img[uint64(k)] = uint64(v)
			return true
		})
		return 0
	})
	return img
}

// drainedImages drains srv and returns its store's image, the image its
// feeds replay to from sequence 1 over the baseline population, and the
// image a fresh engine recovers from the log directory. It fails the test
// on a gap in a feed's sequence or when Stats.FeedEvents disagrees with
// the events replayed. An unfinished ticket on either sequencer shows up
// here: everything published behind it stays parked, out of the feed and
// (the log runs with SyncNone, so nothing blocks on it) out of the log.
func drainedImages(t *testing.T, srv *Server, kind, dir string) (store, feeds, log map[uint64]uint64) {
	t.Helper()
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	w := <-srv.pool
	store = storeImage(w.th, srv.store)
	srv.pool <- w

	feeds = make(map[uint64]uint64)
	for k := 1; k <= srv.cfg.Keys; k++ {
		feeds[uint64(k)] = uint64(srv.cfg.Balance)
	}
	var replayed uint64
	for sh, f := range srv.feeds {
		cursor := uint64(1)
		for {
			batch, next, _, done, err := f.Next(cursor, nil, 256)
			if err != nil {
				t.Fatalf("shard %d feed: %v", sh, err)
			}
			if done {
				break
			}
			for _, e := range batch {
				if e.Seq != cursor {
					t.Fatalf("shard %d feed: seq %d at cursor %d", sh, e.Seq, cursor)
				}
				cursor++
				if e.Del {
					delete(feeds, e.Key)
				} else {
					feeds[e.Key] = e.Val
				}
			}
			replayed += uint64(len(batch))
			cursor = next
		}
	}
	if got := srv.statsSnapshot().FeedEvents; got != replayed {
		t.Fatalf("Stats.FeedEvents = %d, the feeds replay %d events", got, replayed)
	}

	th := harness.EngineSpec{Kind: kind, Manager: "polka"}.New().NewThread(0)
	recovered, _, err := txkv.ReplayWAL(wal.OSFS{}, dir, th)
	if err != nil {
		t.Fatalf("replay wal: %v", err)
	}
	return store, feeds, storeImage(th, recovered)
}

func sameImage(t *testing.T, what string, got, want map[uint64]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d keys, the store %d", what, len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("%s diverges at key %d: (%d, %v), the store has %d", what, k, gv, ok, v)
		}
	}
}

// TestShardOverflowRefusesOnlyTheOffender pins the panic rule on both
// paths: a Put the store refuses (its shard is full — a foreign panic out
// of the transaction body) is answered with a typed Internal error, its
// batch neighbours are not, the server keeps serving, and no log or feed
// ticket stays reserved behind it.
func TestShardOverflowRefusesOnlyTheOffender(t *testing.T) {
	for _, path := range []struct {
		name  string
		batch int
	}{{"pooled", 0}, {"coalesced", 8}} {
		for _, kind := range engineKinds {
			t.Run(path.name+"/"+kind, func(t *testing.T) {
				dir := t.TempDir()
				srv, err := Start("127.0.0.1:0", Config{
					Engine: harness.EngineSpec{Kind: kind, Manager: "polka"}, Keys: 16,
					WALDir: dir, WALSync: wal.SyncNone, FeedCap: 1 << 13,
					CoalesceBatch: path.batch,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()

				// 16 shards of 16 slots hold 256 keys: most of these do not fit.
				const first, n = 1000, 4096
				acked, refused := 0, 0
				err = runPipe(srv.Addr().String(), 16, n+2, func(i int) txkvwire.Req {
					switch i {
					case n:
						return txkvwire.Req{Op: txkvwire.OpGet, Key: 1}
					case n + 1:
						return txkvwire.Req{Op: txkvwire.OpPut, Key: 2, Val: 77}
					}
					return txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(first + i), Val: uint64(i)}
				}, func(i int, reply txkvwire.Reply) error {
					switch {
					case i == n && (reply.Err != "" || !reply.Found):
						return fmt.Errorf("get after the overflow: %+v", reply)
					case i == n+1 && (reply.Err != "" || reply.OK):
						return fmt.Errorf("put of a present key after the overflow: %+v", reply)
					case i >= n:
					case reply.Err == "" && reply.OK:
						acked++
					case reply.Code == txkvwire.CodeInternal:
						refused++
					default:
						return fmt.Errorf("put %d: %+v, want an insert or a typed Internal error", i, reply)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if refused == 0 || acked+16 > 256 {
					t.Fatalf("%d puts acked, %d refused: no shard overflowed", acked, refused)
				}

				store, feeds, log := drainedImages(t, srv, kind, dir)
				if len(store) != 16+acked || store[2] != 77 {
					t.Fatalf("store holds %d keys, key 2 = %d; want %d keys (16 + every acked put) and 77",
						len(store), store[2], 16+acked)
				}
				sameImage(t, "the feed replay", feeds, store)
				sameImage(t, "the log replay", log, store)
			})
		}
	}
}

// TestPathsInterleavedOnTheSameKeys runs coalesced single-key mutations
// against pooled transfers and wire batches over one 64-key space. Log
// order and feed order must both agree with commit order across the two
// paths: each replays to exactly the store.
func TestPathsInterleavedOnTheSameKeys(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind, func(t *testing.T) {
			const keys, perConn = 64, 300
			dir := t.TempDir()
			srv, err := Start("127.0.0.1:0", Config{
				Engine: harness.EngineSpec{Kind: kind, Manager: "polka"}, Keys: keys,
				WALDir: dir, WALSync: wal.SyncNone, FeedCap: 1 << 14,
				CoalesceBatch: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			key := func(c, i, j int) uint64 { return uint64(1 + (c*17+i*5+j*23)%keys) }

			// What each connection sends; an op may fail its condition (a
			// concurrent delete took its key), but every kind must also land.
			conns := []func(c, i int) txkvwire.Req{
				func(c, i int) txkvwire.Req { // coalesced
					k := key(c, i, 0)
					switch i % 4 {
					case 0:
						return txkvwire.Req{Op: txkvwire.OpDelete, Key: k}
					case 1:
						return txkvwire.Req{Op: txkvwire.OpCAS, Key: k, Old: uint64(txkv.DefaultBalance), Val: uint64(c<<20 | i)}
					}
					return txkvwire.Req{Op: txkvwire.OpPut, Key: k, Val: uint64(c<<20 | i)}
				},
				func(c, i int) txkvwire.Req { // pooled
					return txkvwire.Req{Op: txkvwire.OpTransfer, Keys: []uint64{key(c, i, 0), key(c, i, 1), key(c, i, 2)}, Amount: 1}
				},
				func(c, i int) txkvwire.Req { // pooled, atomic across shards
					return txkvwire.Req{Op: txkvwire.OpBatch, Sub: []txkvwire.Req{
						{Op: txkvwire.OpPut, Key: key(c, i, 0), Val: uint64(txkv.DefaultBalance)},
						{Op: txkvwire.OpGet, Key: key(c, i, 1)},
						{Op: txkvwire.OpTransfer, Keys: []uint64{key(c, i, 0), key(c, i, 2)}, Amount: 2},
						{Op: txkvwire.OpPut, Key: key(c, i, 3), Val: uint64(c<<20 | i)},
					}}
				},
			}
			landed := make([]int, 6)
			var wg sync.WaitGroup
			for c := range landed {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					req := conns[c%len(conns)]
					err := runPipe(srv.Addr().String(), 8, perConn, func(i int) txkvwire.Req { return req(c, i) },
						func(i int, reply txkvwire.Reply) error {
							switch {
							case reply.Err == "" && (reply.OK || reply.Sub != nil):
								landed[c]++
							case reply.Err != "" && reply.Code != txkvwire.CodeRejected:
								return fmt.Errorf("conn %d reply %d: %+v", c, i, reply)
							}
							return nil
						})
					if err != nil {
						t.Error(err)
					}
				}(c)
			}
			wg.Wait()
			for c, n := range landed {
				if n == 0 {
					t.Errorf("connection %d: none of its %d mutations landed", c, perConn)
				}
			}
			if st := srv.statsSnapshot(); st.CoalesceItems == 0 || st.CoalesceItems == st.Requests {
				t.Errorf("%d of %d requests rode the batchers: want both paths in use", st.CoalesceItems, st.Requests)
			}
			if t.Failed() {
				return
			}
			store, feeds, log := drainedImages(t, srv, kind, dir)
			sameImage(t, "the feed replay", feeds, store)
			sameImage(t, "the log replay", log, store)
		})
	}
}

// TestPooledPutAllocs pins what a pooled Put costs in allocations through
// the connection's dispatch path with the log and the feeds on. The
// connection's commit scope keeps its redo and event buffers, the feed
// makes no wake channel nobody waits on, and the log encodes the frame
// into its pending buffer: only the object-based engine's per-write
// clones are left.
func TestPooledPutAllocs(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind, func(t *testing.T) {
			srv, err := Start("127.0.0.1:0", Config{
				Engine: harness.EngineSpec{Kind: kind, Manager: "polka"}, Keys: 64,
				WALDir: t.TempDir(), WALSync: wal.SyncNone,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c := &conn{s: srv, cm: coalesce.NewCommit(srv.store, srv.wal, srv.feeds)}
			req := txkvwire.Req{Op: txkvwire.OpPut, Key: 7}
			got := testing.AllocsPerRun(1000, func() {
				req.Val++
				if reply, _, _, _, _ := c.dispatch(req, time.Time{}); reply.Err != "" {
					t.Fatal(reply.Err)
				}
			})
			want := 0.0
			if kind == "rstm" {
				want = 3
			}
			if got > want {
				t.Fatalf("%.1f allocations per pooled Put, want at most %.0f", got, want)
			}
		})
	}
}

// TestPooledBatchAllocs pins what a 256-op Batch costs through the same
// path. The connection keeps the sub-reply buffer of its largest Batch,
// so a Batch of Gets allocates nothing on any engine, and neither does a
// Batch of Puts on a word engine; the object-based engine clones what it
// writes.
func TestPooledBatchAllocs(t *testing.T) {
	gets := make([]txkvwire.Req, txkvwire.MaxBatch)
	puts := make([]txkvwire.Req, txkvwire.MaxBatch)
	for i := range gets {
		gets[i] = txkvwire.Req{Op: txkvwire.OpGet, Key: uint64(i + 1)}
		puts[i] = txkvwire.Req{Op: txkvwire.OpPut, Key: uint64(i + 1)}
	}
	for _, kind := range engineKinds {
		t.Run(kind, func(t *testing.T) {
			srv, err := Start("127.0.0.1:0", Config{
				Engine: harness.EngineSpec{Kind: kind, Manager: "polka"}, Keys: txkvwire.MaxBatch,
				WALDir: t.TempDir(), WALSync: wal.SyncNone,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c := &conn{s: srv, cm: coalesce.NewCommit(srv.store, srv.wal, srv.feeds)}
			putAllocs := 0.0
			if kind == "rstm" {
				putAllocs = 2*txkvwire.MaxBatch + 1
			}
			for _, tc := range []struct {
				req  txkvwire.Req
				want float64
			}{
				{txkvwire.Req{Op: txkvwire.OpBatch, Sub: gets}, 0},
				{txkvwire.Req{Op: txkvwire.OpBatch, Sub: puts}, putAllocs},
			} {
				run := func() {
					for i := range puts {
						puts[i].Val++
					}
					reply, _, _, _, _ := c.dispatch(tc.req, time.Time{})
					if reply.Err != "" || len(reply.Sub) != txkvwire.MaxBatch {
						t.Fatalf("%d sub-replies, error %q", len(reply.Sub), reply.Err)
					}
				}
				// Every pool thread first grows its logs to a Batch's size.
				for range 2 * srv.cfg.Threads {
					run()
				}
				got := testing.AllocsPerRun(100, run)
				if got > tc.want {
					t.Errorf("%.1f allocations per %d-%s Batch, want at most %.0f", got, txkvwire.MaxBatch, tc.req.Sub[0].Op, tc.want)
				}
			}
		})
	}
}
