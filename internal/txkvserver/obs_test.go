package txkvserver

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvwire"
)

// TestNoTornFrames pipelines many requests on one connection without
// reading a single reply, then drains the replies through a
// deliberately tiny buffered reader. Every reply frame must decode
// cleanly and arrive in request order — a torn frame (length prefix
// split from its payload, or interleaved writes) would desynchronize
// the stream and fail the decode immediately.
func TestNoTornFrames(t *testing.T) {
	srv, _ := startServer(t, "swisstm", 256)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	const n = 500
	var out []byte
	for i := 0; i < n; i++ {
		var payload []byte
		payload, err = txkvwire.AppendReq(nil, txkvwire.Req{Op: txkvwire.OpGet, Key: uint64(1 + i%256)})
		if err != nil {
			t.Fatalf("encode req %d: %v", i, err)
		}
		frame := make([]byte, 0, len(payload)+4)
		frame = append(frame, byte(len(payload)), byte(len(payload)>>8), byte(len(payload)>>16), byte(len(payload)>>24))
		frame = append(frame, payload...)
		out = append(out, frame...)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatalf("pipeline write: %v", err)
	}

	// A 7-byte reader buffer guarantees frame headers and payloads are
	// observed split across reads, so any server-side tearing shows up.
	r := &slowReader{r: conn}
	var fbuf []byte
	for i := 0; i < n; i++ {
		fbuf, err = txkvwire.ReadFrame(r, fbuf)
		if err != nil {
			t.Fatalf("reply %d: read frame: %v", i, err)
		}
		rep, err := txkvwire.DecodeReply(fbuf)
		if err != nil {
			t.Fatalf("reply %d: decode: %v", i, err)
		}
		if rep.Op != txkvwire.OpGet || rep.Err != "" {
			t.Fatalf("reply %d: unexpected reply %+v", i, rep)
		}
	}
}

// slowReader returns at most 7 bytes per Read call.
type slowReader struct{ r io.Reader }

func (s *slowReader) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return s.r.Read(p)
}

// TestConcurrentStatsSnapshot hammers the store from several
// connections while a separate connection polls the Stats op, and
// asserts the documented diff-tolerance contract: every cumulative
// field is monotone non-decreasing across successive snapshots even
// though recording never pauses.
func TestConcurrentStatsSnapshot(t *testing.T) {
	srv, cl := startServer(t, "swisstm", 256)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := txkvclient.Dial(srv.Addr().String())
			if err != nil {
				t.Errorf("worker dial: %v", err)
				return
			}
			defer c.Close()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := 1 + (seed*1000003+i)%256
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(uint64(g))
	}

	var prev txkvwire.Stats
	for i := 0; i < 50; i++ {
		st, err := cl.Stats()
		if err != nil {
			t.Fatalf("stats poll %d: %v", i, err)
		}
		mono := func(name string, now, before uint64) {
			if now < before {
				t.Fatalf("poll %d: %s went backwards: %d -> %d", i, name, before, now)
			}
		}
		mono("Requests", st.Requests, prev.Requests)
		mono("ParseNs", st.ParseNs, prev.ParseNs)
		mono("QueueNs", st.QueueNs, prev.QueueNs)
		mono("TxnNs", st.TxnNs, prev.TxnNs)
		mono("CommitNs", st.CommitNs, prev.CommitNs)
		mono("ReplyNs", st.ReplyNs, prev.ReplyNs)
		mono("Commits", st.Commits, prev.Commits)
		mono("Aborts", st.Aborts, prev.Aborts)
		prev = st
	}
	close(stop)
	wg.Wait()
	if prev.Requests == 0 || prev.Commits == 0 {
		t.Fatalf("no traffic observed: %+v", prev)
	}
}

// TestAdminEndpoints starts a server with the admin surface bound,
// applies real load, and checks /metrics exposes every metric family
// the tentpole promises, /statz upholds the abort-cause partition, and
// the pprof index answers.
func TestAdminEndpoints(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{
		Engine: harness.EngineSpec{Kind: "swisstm", Manager: "polka"},
		Keys:   256,
		Admin:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("start server with admin: %v", err)
	}
	defer srv.Close()
	if srv.AdminAddr() == nil {
		t.Fatal("admin listener not bound")
	}

	cl, err := txkvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	for i := uint64(1); i <= 300; i++ {
		k := 1 + i%256
		if i%4 == 0 {
			if _, err := cl.Put(k, i); err != nil {
				t.Fatalf("put: %v", err)
			}
		} else if _, _, err := cl.Get(k); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if _, err := cl.Transfer([]uint64{1, 2, 3}, 1); err != nil {
		t.Fatalf("transfer: %v", err)
	}

	base := "http://" + srv.AdminAddr().String()
	body := httpGet(t, base+"/metrics")
	for _, family := range []string{
		"txkv_requests_total{op=\"get\"}",
		"txkv_request_ns_bucket{op=\"get\",le=",
		"txkv_phase_ns_bucket{op=\"get\",phase=\"queue\",le=",
		"txkv_shard_conflicts_total{shard=",
		"stm_commits_total",
		"stm_aborts_total{cause=\"write_write\"}",
		"stm_aborts_total{cause=\"read_validation\"}",
		"stm_aborts_total{cause=\"commit_validation\"}",
		"stm_aborts_total{cause=\"locked\"}",
		"stm_aborts_total{cause=\"cm_kill\"}",
		"stm_aborts_total{cause=\"explicit_restart\"}",
		"stm_aborts_total{cause=\"user_error\"}",
		"stm_aborts_total{cause=\"lock_acquire\"}",
		"stm_txn_retries_bucket{le=",
		"stm_txn_read_set_entries_sum",
		"stm_txn_write_set_entries_count",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	var z Statz
	if err := json.Unmarshal([]byte(httpGet(t, base+"/statz")), &z); err != nil {
		t.Fatalf("/statz not JSON: %v", err)
	}
	if z.Engine == "" || z.Stats.Requests == 0 {
		t.Fatalf("empty /statz: %+v", z)
	}
	if causeSum := z.Stats.Sum(); causeSum != z.Stats.Aborts {
		t.Fatalf("abort-cause partition violated: causes sum %d, aborts %d (%+v)", causeSum, z.Stats.Aborts, z.Stats.AbortCauses)
	}
	if z.Stats.SrvP50Ns == 0 || z.Stats.SrvP99Ns < z.Stats.SrvP50Ns {
		t.Fatalf("bad server percentiles: %+v", z.Stats)
	}

	if pi := httpGet(t, base+"/debug/pprof/"); !strings.Contains(pi, "goroutine") {
		t.Errorf("pprof index looks wrong: %.80s", pi)
	}
}

// TestStatzKeysSnakeCase: every key of /statz's stats object is lower
// snake_case, the wire fields' and the embedded abort causes' alike.
func TestStatzKeysSnakeCase(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{
		Engine: harness.EngineSpec{Kind: "swisstm"},
		Keys:   16,
		Admin:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("start server with admin: %v", err)
	}
	defer srv.Close()
	var z struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+srv.AdminAddr().String()+"/statz")), &z); err != nil {
		t.Fatalf("/statz not JSON: %v", err)
	}
	if len(z.Stats) == 0 {
		t.Fatal("/statz has no stats object")
	}
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	for k := range z.Stats {
		if !snake.MatchString(k) {
			t.Errorf("/statz stats key %q is not lower snake_case", k)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
