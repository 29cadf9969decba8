package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"swisstm/internal/harness"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
)

// metricFamilies are the /metrics substrings whose absence fails the obs
// gate: one representative series per promised metric family.
var metricFamilies = []string{
	`txkv_requests_total{op="get"}`,
	`txkv_request_ns_bucket{op="get",le=`,
	`txkv_request_ns_sum{op="get"}`,
	`txkv_phase_ns_bucket{op="get",phase="queue",le=`,
	`txkv_phase_ns_bucket{op="transfer",phase="txn",le=`,
	`txkv_shard_conflicts_total{shard=`,
	`stm_commits_total`,
	`stm_ro_commits_total`,
	`stm_aborts_total{cause="write_write"}`,
	`stm_aborts_total{cause="read_validation"}`,
	`stm_aborts_total{cause="commit_validation"}`,
	`stm_aborts_total{cause="locked"}`,
	`stm_aborts_total{cause="cm_kill"}`,
	`stm_aborts_total{cause="explicit_restart"}`,
	`stm_aborts_total{cause="user_error"}`,
	`stm_aborts_total{cause="lock_acquire"}`,
	`stm_txn_retries_bucket{le=`,
	`stm_txn_read_set_entries_sum`,
	`stm_txn_write_set_entries_count`,
}

// obsGate is the observability gate (DESIGN.md §11): it starts an
// in-process txkvserver with the admin surface bound to an ephemeral
// loopback port, applies a short contended load over real TCP, then
//
//   - scrapes /metrics and fails when any promised metric family is
//     missing (per-op request counters and latency histograms, per-op ×
//     phase histograms, per-shard conflict counters, engine commit and
//     abort-cause counters, per-transaction distributions), and
//   - fetches /statz and fails when the abort-cause partition is
//     violated (the eight causes must sum to the abort total) or when
//     the server-side latency percentiles are missing or non-monotone.
func obsGate(kind string) error {
	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine: harness.EngineSpec{Kind: kind, Manager: "polka"},
		Keys:   512,
		Admin:  "127.0.0.1:0",
	})
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	defer srv.Close()

	// A contended transfer-heavy load over several connections, so the
	// abort-cause counters actually move.
	if _, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr:  srv.Addr().String(),
		Mix:   txkv.TransferMix,
		Conns: 4, Keys: 512, Ops: 2000, Seed: 1,
	}); err != nil {
		return fmt.Errorf("load run: %w", err)
	}

	base := "http://" + srv.AdminAddr().String()
	body, err := httpGet(base + "/metrics")
	if err != nil {
		return err
	}
	for _, f := range metricFamilies {
		if !strings.Contains(body, f) {
			return fmt.Errorf("/metrics missing family %q", f)
		}
	}

	zbody, err := httpGet(base + "/statz")
	if err != nil {
		return err
	}
	var z txkvserver.Statz
	if err := json.Unmarshal([]byte(zbody), &z); err != nil {
		return fmt.Errorf("/statz not JSON: %w", err)
	}
	st := z.Stats
	if st.Requests == 0 || st.Commits == 0 {
		return fmt.Errorf("no traffic recorded: %+v", st)
	}
	if causes := st.Sum(); causes != st.Aborts {
		return fmt.Errorf("abort partition violated: causes sum %d != aborts %d (%+v)", causes, st.Aborts, st.AbortCauses)
	}
	if st.SrvP50Ns == 0 || st.SrvP99Ns < st.SrvP50Ns || st.SrvP999Ns < st.SrvP99Ns {
		return fmt.Errorf("bad server percentiles p50=%d p99=%d p999=%d",
			st.SrvP50Ns, st.SrvP99Ns, st.SrvP999Ns)
	}
	return nil
}
