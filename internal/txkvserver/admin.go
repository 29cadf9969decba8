package txkvserver

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"swisstm/internal/obs"
	"swisstm/internal/txkvwire"
)

// startAdmin binds the HTTP observability listener (Config.Admin):
//
//	GET /metrics        Prometheus text exposition of every registry
//	                    series — per-op request counters and latency
//	                    histograms, per-op×phase histograms, per-shard
//	                    conflict counters, engine commit/abort-cause
//	                    counters and per-transaction distributions.
//	GET /statz          the wire Stats snapshot, abort causes
//	                    included, as JSON.
//	GET /debug/pprof/*  the standard Go profiles (CPU, heap, block,
//	                    mutex, goroutine, trace).
//
// The pprof handlers are mounted on the server's own mux — not
// http.DefaultServeMux — so importing net/http/pprof elsewhere can
// never leak profiles onto the data port.
func (s *Server) startAdmin(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.adminLn = ln
	s.adminSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.adminSrv.Serve(ln) // returns on Close
	}()
	return nil
}

// AdminAddr returns the bound admin listen address, or nil when the
// admin surface is disabled.
func (s *Server) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.m.reg.Gather()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, snap)
}

// Statz is the JSON shape of /statz: the engine name and the snapshot the
// wire Stats op returns, whose abort causes scripted checks (the
// smoke-obs gate) sum against its abort total.
type Statz struct {
	Engine string            `json:"engine"`
	Stats  txkvwire.Stats    `json:"stats"`
	Obs    map[string]uint64 `json:"txn_obs"` // committed-txn distribution counts/means
	Wal    *WalStatz         `json:"wal,omitempty"`
}

// WalStatz reports the commit log's configuration and what the start-
// up recovery scan found; the crash/recover oracle reads it to check
// the restarted server against the log it replayed.
type WalStatz struct {
	Dir             string `json:"dir"`
	Mode            string `json:"mode"`
	RecoveredFrames uint64 `json:"recovered_frames"`
	RecoveredBytes  uint64 `json:"recovered_bytes"`
	LastLSN         uint64 `json:"last_lsn"`
	Segments        int    `json:"segments"`
	Truncated       bool   `json:"truncated"`
	TruncateReason  string `json:"truncate_reason,omitempty"`
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	sum := s.txnObs.Merged()
	z := Statz{
		Engine: s.eng.Name(),
		Stats:  s.statsSnapshot(),
		Obs: map[string]uint64{
			"commits_observed": sum.Retries.Count,
			"retries_p99":      sum.Retries.Quantile(0.99),
			"read_set_p99":     sum.ReadSet.Quantile(0.99),
			"write_set_p99":    sum.WriteSet.Quantile(0.99),
		},
	}
	if s.wal != nil {
		z.Wal = &WalStatz{
			Dir:             s.cfg.WALDir,
			Mode:            s.cfg.WALSync.String(),
			RecoveredFrames: s.walInfo.Frames,
			RecoveredBytes:  s.walInfo.Bytes,
			LastLSN:         s.walInfo.LastLSN,
			Segments:        s.walInfo.Segments,
			Truncated:       s.walInfo.Truncated,
			TruncateReason:  s.walInfo.Reason,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(z)
}

// collectEngine is the registry collector for /metrics: it drains the
// worker pool (the same quiesce the Stats op performs) and appends the
// engine-level series to the snapshot.
func (s *Server) collectEngine(snap *obs.Snapshot) {
	es := s.drainStats()
	snap.AddCounter("stm_commits_total", nil, es.Commits)
	snap.AddCounter("stm_ro_commits_total", nil, es.ROCommits)
	cause := func(name string, v uint64) {
		snap.AddCounter("stm_aborts_total", []obs.Label{{Key: "cause", Value: name}}, v)
	}
	c := es.AbortCauses
	cause("write_write", c.AbortsWW)
	cause("read_validation", c.AbortsValidRead)
	cause("commit_validation", c.AbortsValidCommit)
	cause("locked", c.AbortsLocked)
	cause("cm_kill", c.AbortsKilled)
	cause("explicit_restart", c.AbortsExplicit)
	cause("user_error", c.AbortsUser)
	cause("lock_acquire", c.LockAcquireFail)

	sum := s.txnObs.Merged()
	snap.AddHist("stm_txn_retries", nil, sum.Retries)
	snap.AddHist("stm_txn_read_set_entries", nil, sum.ReadSet)
	snap.AddHist("stm_txn_write_set_entries", nil, sum.WriteSet)
}
