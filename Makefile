# CI and humans run the same commands: .github/workflows/ci.yml calls
# exactly these targets. See README.md § Development.

GO ?= go

# Engine packages get a dedicated -race pass: they are the lock-level
# concurrent code, and the data-structure stress tests hammer them. The
# kernel they share (internal/stm/kernel) rides with them.
# txkv rides along for its concurrent transfer-invariant test; the
# server stack (wire/server/client) because its tests run many TCP
# connections against one shared engine.
ENGINE_PKGS := ./internal/swisstm ./internal/tl2 ./internal/tinystm ./internal/rstm ./internal/stm/kernel
RACE_PKGS := $(ENGINE_PKGS) ./internal/cm ./internal/txkv ./internal/bench7 ./internal/txkvwire ./internal/txkvserver ./internal/txkvclient ./internal/obs ./internal/wal ./internal/chaos ./internal/coalesce ./internal/ticket

SMOKE_DIR ?= /tmp/swisstm-smoke

.PHONY: build test race loc smoke smoke-txkv smoke-server smoke-obs smoke-examples smoke-recover smoke-chaos smoke-coalesce grid fmt vet benchmark benchmark-trace benchmark-ab hotpath ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also runs the coalescing gate on one engine under the detector:
# feed tailers, pipelined load, the coalescer, group fsync and drain in
# one process is the most concurrent configuration in the repository.
#
# CONN_TESTS, the connection's order, window and answer contracts, run ten
# times more under the detector: one pass rarely meets the interleaving
# of completions that would break them.
CONN_TESTS := TestAnswerWritesWindowOnce|TestUnreserveDoesNotStallAnswer|TestFrameReadAfterOwedReplies|TestRingKeepsRequestOrder|TestPipelineWindowIsExact|TestShardQueueFullRepliesInOrder|TestRequestsCountedBeforeReplies
#
# The engines' attempt lifecycle (Begin/BeginRO, Commit, Unwind, AbortUser)
# runs five times more under the detector on the four engines: the APIV2
# conformance cases (under each RSTM variant), the abort-path suite and the
# no-stale-dedup-bits endings, and the kernel's record helpers.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=10 -run '^($(CONN_TESTS))$$' ./internal/txkvserver
	$(GO) test -race -count=5 -run '^(TestAbortPath|TestDedupNoStaleBits)$$' $(ENGINE_PKGS)
	$(GO) test -race -count=5 -run '^TestConformance$$/^APIV2$$' ./internal/swisstm ./internal/tl2 ./internal/tinystm
	$(GO) test -race -count=5 -run '^TestConformanceVariants$$//^APIV2$$' ./internal/rstm
	$(GO) run -race ./cmd/kvsmoke coalesce -engines swisstm

# GO_FILES is the tree's own Go source, one list for fmt and loc:
# .bench_build/ holds the parent commit `make benchmark-ab` exported, and
# its formatting is not this tree's to gate on.
GO_FILES = find . -name '*.go' ! -path './.bench_build/*'

fmt:
	@files=$$($(GO_FILES) | xargs gofmt -l); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# loc prints the non-test Go lines of each package and their total outside
# benchmark/ — the unit ROADMAP.md states its size budgets in.
loc:
	@$(GO_FILES) ! -name '*_test.go' ! -path './benchmark/*' \
		| sed 's|^\./||' | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# benchmark runs the repo benchmark (benchmark/README.md, BENCHMARK.json):
# four workloads end to end, tracing off. benchmark-trace adds the
# per-layer metrics and the latency budget. Neither gates CI: a change is
# judged on interleaved runs against its parent commit, not on one run.
benchmark:
	$(GO) run ./benchmark

benchmark-trace:
	$(GO) run ./benchmark -trace 1

# benchmark-ab is that judgement: ./benchmark built from REV and from the
# working tree, run on WORKLOAD in PAIRS interleaved pairs with fresh
# seeds (scripts/benchmark-ab.sh prints every run, quartiles and wins).
# WORKLOAD=all runs the four BENCHMARK.json workloads back to back, one
# summary block each. TRACE=1 follows each workload's timed pairs with one
# `-trace 1` pair and prints the per-layer metrics of both sides in two
# columns with the difference, then one line per count metric (*_per_op,
# *_share, items_per_batch): same within 1 %, or moved. Each block ends with a verdict per
# end-to-end metric against its BENCHMARK.json bound (not worse / worse /
# unresolved); CLAIM=<metric>@<workload> names the pairing judged as a
# claimed gain instead (claim met / claim not met).
#   make benchmark-ab REV=HEAD~1 WORKLOAD=svc-update-coalesced PAIRS=10
#   make benchmark-ab REV=HEAD~1 WORKLOAD=all PAIRS=10
#   make benchmark-ab REV=HEAD~1 WORKLOAD=bench7-rw PAIRS=10 TRACE=1
#   make benchmark-ab REV=HEAD~1 WORKLOAD=all PAIRS=10 CLAIM=ops_per_s@svc-update-coalesced
REV ?= HEAD
WORKLOAD ?= svc-update-coalesced
PAIRS ?= 10
TRACE ?=
CLAIM ?=
benchmark-ab:
	GO=$(GO) TRACE=$(TRACE) CLAIM=$(CLAIM) scripts/benchmark-ab.sh $(REV) $(WORKLOAD) $(PAIRS)

# hotpath compares the word engines' hot paths with REV's, from the
# compiler's -S output (scripts/hotpath.sh): for SwissTM's, TL2's and
# TinySTM's load, loadRO, store, commit, validate, extend and releaseWLocks,
# the multiset of CALL targets (bounds-check panics included) and the count
# of LOCK-prefixed and memory-operand XCHG instructions, parent beside
# change. Exits non-zero on any difference. Not part of ci: it needs a REV.
#   make hotpath REV=HEAD~1
hotpath:
	GO=$(GO) scripts/hotpath.sh $(REV)

# smoke regenerates every figure at quick scale, persists the records,
# and fails if any result file is empty or any workload check failed.
smoke:
	rm -rf $(SMOKE_DIR)
	$(GO) run ./cmd/paperfigs -run all -quick -format csv -out $(SMOKE_DIR)
	@for f in $(SMOKE_DIR)/*.csv; do \
		lines=$$(wc -l < "$$f"); \
		if [ "$$lines" -le 1 ]; then echo "empty result file: $$f"; exit 1; fi; \
	done
	@if grep -l 'false$$' $(SMOKE_DIR)/*.summary.csv; then \
		echo "a workload check failed (all_checked=false above)"; exit 1; \
	fi
	@echo "smoke OK: $$(ls $(SMOKE_DIR) | wc -l) result files in $(SMOKE_DIR)"

# smoke-txkv runs a short seeded txkv experiment per engine through
# paperfigs (the three headline mixes, read-only and the uniform point,
# correctness oracles armed) and fails on empty result files or failed
# invariant checks.
smoke-txkv:
	rm -rf $(SMOKE_DIR)/txkv
	$(GO) run ./cmd/paperfigs -run txkv -quick -threads 1,2 -repeats 2 -seed 1 -ops 200 -format csv -out $(SMOKE_DIR)/txkv
	@for f in $(SMOKE_DIR)/txkv/*.csv; do \
		lines=$$(wc -l < "$$f"); \
		if [ "$$lines" -le 1 ]; then echo "empty result file: $$f"; exit 1; fi; \
	done
	@if grep -l 'false$$' $(SMOKE_DIR)/txkv/*.summary.csv; then \
		echo "a txkv correctness check failed (all_checked=false above)"; exit 1; \
	fi
	@echo "smoke-txkv OK: all engines, all mixes, oracles green"

# smoke-server exercises the txkv network service end to end: an
# in-process server per engine on an ephemeral loopback port (real TCP),
# driven by the load generator in both closed-loop and open-loop mode
# with the over-the-wire oracles armed (transfer mix → balance
# conservation). The closed run's servers keep a commit log in the
# default group-fsync mode. Fails on empty result files, missing
# percentile columns, zero percentile values, a closed run that logged
# nothing, or a failed oracle.
smoke-server:
	rm -rf $(SMOKE_DIR)/server
	$(GO) run ./cmd/txkvload -launch -engines swisstm,tl2,tinystm,rstm \
		-mixes transfer -conns 2 -ops 400 -keys 512 -seed 1 \
		-wal $(SMOKE_DIR)/server/wal \
		-format csv -out $(SMOKE_DIR)/server -name closed
	$(GO) run ./cmd/txkvload -launch -engines swisstm,tl2,tinystm,rstm \
		-mixes read-heavy -conns 2 -ops 400 -keys 512 -seed 2 -rate 4000 \
		-format csv -out $(SMOKE_DIR)/server -name open
	@for f in $(SMOKE_DIR)/server/closed.csv $(SMOKE_DIR)/server/open.csv; do \
		lines=$$(wc -l < "$$f"); \
		if [ "$$lines" -le 1 ]; then echo "empty result file: $$f"; exit 1; fi; \
		cols="lat_p50_ns lat_p99_ns lat_p999_ns phase_txn_ns"; \
		case "$$f" in */closed.csv) cols="$$cols phase_wal_ns wal_frames";; esac; \
		for col in $$cols; do \
			idx=$$(head -1 "$$f" | tr ',' '\n' | grep -nx "$$col" | cut -d: -f1); \
			if [ -z "$$idx" ]; then echo "$$f: missing column $$col"; exit 1; fi; \
			if tail -n +2 "$$f" | awk -F, -v i="$$idx" '$$i + 0 <= 0 {exit 1}'; then :; else \
				echo "$$f: zero $$col in a data row"; exit 1; fi; \
		done; \
	done
	@if grep -l 'false$$' $(SMOKE_DIR)/server/*.summary.csv; then \
		echo "a server oracle failed (all_checked=false above)"; exit 1; \
	fi
	@echo "smoke-server OK: all four engines over TCP, closed (durable) + open loop, oracles green"

# smoke-obs gates the observability surface (DESIGN.md §11): per engine
# it starts an in-process server with the admin endpoint bound, applies
# a contended load over real TCP, scrapes /metrics, and fails when any
# promised metric family is missing or when /statz shows a violated
# abort-cause partition (sum of causes != total aborts).
smoke-obs:
	$(GO) run ./cmd/kvsmoke obs

# smoke-recover is the kill/recover durability gate (DESIGN.md §12):
# per engine, kvsmoke SIGKILLs a real txkvserver process mid-load with
# the commit log in group-fsync mode, then fails on a log checksum
# error, a lost acknowledged write, or a restarted server whose state
# disagrees with an independent replay of the log.
smoke-recover:
	$(GO) build -o bin/txkvserver ./cmd/txkvserver
	$(GO) run ./cmd/kvsmoke recover -server bin/txkvserver \
		-engines swisstm,tl2,tinystm,rstm -warm 200ms

# smoke-chaos is the overload/fault-injection gate (DESIGN.md §13):
# per engine, kvsmoke storms a real server through the seeded chaos
# proxy — admission limits armed, open-loop load above capacity,
# truncation/RST/blackhole faults enabled — and fails on a lost
# acknowledged write, an error reply without a typed code, a server
# crash or hung drain, zero sheds (overload never engaged), or an
# unbounded p99 for accepted requests.
smoke-chaos:
	$(GO) run ./cmd/kvsmoke chaos -engines swisstm,tl2 -seed 1 -duration 1500ms

# smoke-coalesce is the commit-coalescing + change-feed gate (DESIGN.md
# §14): per engine, pipelined open-loop load with per-shard coalescing
# on and the commit log in group-fsync mode, a feed tailer on every
# shard from sequence 1, and the transfer balance oracle over the same
# wire. Fails on an oracle violation, a lost or duplicated reply, a
# feed subscriber that misses/duplicates/reorders an event or stalls
# after drain, or a /metrics page without the batch-size histogram.
smoke-coalesce:
	$(GO) run ./cmd/kvsmoke coalesce

# grid runs the full experiment grid from scripts/experiments.json into
# one merged CSV pair, grid.csv + grid.summary.csv (override cell size
# with GRID_OPS, e.g. `make grid GRID_OPS=300` for a quick pass; CI and
# `make ci` run it at 150), and fails on a failed oracle.
GRID_DIR ?= grid_runs
GRID_OPS ?= 0
grid:
	$(GO) run ./cmd/txkvload -launch -config scripts/experiments.json -name grid -format csv -out $(GRID_DIR) -ops $(GRID_OPS)

# smoke-examples builds and runs every examples/ program to completion.
# The examples are the public face of the transaction API; running them
# in CI means the API surface they exercise (value-returning Atomic,
# AtomicErr, AtomicRO, typed handles) cannot silently rot. Each example
# self-checks its invariant and panics on violation, so a non-zero exit
# fails the gate.
smoke-examples:
	@for d in examples/*/; do \
		echo "running $$d"; \
		$(GO) run ./$$d || exit 1; \
	done
	@echo "smoke-examples OK: all examples ran and self-checked"

ci: GRID_OPS = 150
ci: fmt vet build test race smoke smoke-txkv smoke-server smoke-obs smoke-examples smoke-recover smoke-chaos smoke-coalesce grid
