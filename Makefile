# CI and humans run the same commands: .github/workflows/ci.yml calls
# exactly these targets. See README.md § Development.

GO ?= go

# Engine packages get a dedicated -race pass: they are the lock-level
# concurrent code, and the data-structure stress tests hammer them. The
# kernel they share (internal/stm/kernel) rides with them.
# txkv rides along for its concurrent transfer-invariant test; the
# server stack (wire/server/client) because its tests run many TCP
# connections against one shared engine; mem for its concurrent
# allocator. The detector does not see atomics on a mapped arena's words
# (outside the Go heap), so it orders nothing through them; nor does it
# see a mapped read log (kernel.NewReadSet, from 2^17 lock-table entries).
# The conformance suites run at small tables, whose read logs stay Go
# slices under -race.
ENGINE_PKGS := ./internal/swisstm ./internal/tl2 ./internal/tinystm ./internal/rstm ./internal/stm/kernel
RACE_PKGS := $(ENGINE_PKGS) ./internal/mem ./internal/cm ./internal/txkv ./internal/bench7 ./internal/txkvwire ./internal/txkvserver ./internal/txkvclient ./internal/obs ./internal/wal ./internal/chaos ./internal/coalesce ./internal/ticket

SMOKE_DIR ?= /tmp/swisstm-smoke

.PHONY: build test bench-once race cross loc deadcode smoke smoke-txkv smoke-server smoke-obs smoke-examples smoke-recover smoke-chaos smoke-coalesce grid fmt vet benchmark benchmark-trace benchmark-ab hotpath mutants ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-once runs every Go benchmark for one iteration, so a benchmark that
# no longer builds, panics or fails its own check shows up in CI (~6 s).
# It measures nothing; `go test -bench` with a real -benchtime does.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# race also runs the coalescing gate on one engine under the detector:
# feed tailers, pipelined load, the coalescer, group fsync and drain in
# one process is the most concurrent configuration in the repository.
#
# CONN_TESTS, the connection's order, window and answer contracts and the
# lifetime of its Batch buffers, run ten times more under the detector: one
# pass rarely meets the interleaving of completions that would break them.
# The client's Batch reply buffer (TestBatchReplyBufferReused) runs with them.
CONN_TESTS := TestAnswerWritesWindowOnce|TestUnreserveDoesNotStallAnswer|TestFrameReadAfterOwedReplies|TestRingKeepsRequestOrder|TestPipelineWindowIsExact|TestShardQueueFullRepliesInOrder|TestRequestsCountedBeforeReplies|TestBatchBuffersReused
#
# The engines' attempt lifecycle (Begin/BeginRO, Commit, Unwind, AbortUser)
# runs five times more under the detector on the four engines: the APIV2
# and NewObjects conformance cases (under each RSTM variant), the abort-path
# suite and the no-stale-dedup-bits endings, and the kernel's record helpers.
#
# The red-black tree's node recycling, and bench7's concurrent mixes whose
# structure modifications rebuild the composites they unlink, run three
# times: the whole rbtree package is too slow under the detector for
# RACE_PKGS.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=10 -run '^($(CONN_TESTS))$$' ./internal/txkvserver
	$(GO) test -race -count=10 -run '^TestBatchReplyBufferReused$$' ./internal/txkvclient
	$(GO) test -race -count=5 -run '^(TestAbortPath|TestDedupNoStaleBits)$$' $(ENGINE_PKGS)
	$(GO) test -race -count=5 -run '^TestConformance$$/^(APIV2|NewObjects)$$' ./internal/swisstm ./internal/tl2 ./internal/tinystm
	$(GO) test -race -count=5 -run '^TestConformanceVariants$$//^(APIV2|NewObjects)$$' ./internal/rstm
	$(GO) test -race -count=3 -run '^(TestRecycleModel|TestRecycleRollback|TestDeleteReturnsSuccessor)$$' ./internal/rbtree
	$(GO) test -race -count=3 -run '^TestConcurrentMixedWorkloads$$' ./internal/bench7
	$(GO) run -race ./cmd/kvsmoke coalesce -engines swisstm

# cross builds the tree for two systems other than Linux, where every
# mem.NewTable is a Go slice (table_other.go): what only builds on Linux
# fails here first. go build skips test files, so darwin also vets
# ./internal/..., which type-checks the tests against table_other.go.
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=darwin $(GO) vet ./internal/...
	GOOS=windows $(GO) build ./internal/... ./cmd/...

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

# loc prints the non-test Go lines of each package, their total outside
# benchmark/ and the subtotal of the four engines plus the kernel they
# share — the units ROADMAP.md states its size budgets in.
ENGINE_DIRS = internal/swisstm internal/tinystm internal/tl2 internal/rstm internal/stm/kernel
loc:
	@$(GO_FILES) ! -name '*_test.go' ! -path './benchmark/*' \
		| sed 's|^\./||' | xargs wc -l \
		| awk -v engines='$(ENGINE_DIRS)' \
			'$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				k = split(engines, e, " "); for (i = 1; i <= k; i++) s += n[e[i]]; \
				printf "%7d engines+kernel (%s)\n", s, engines; printf "%7d total\n", t }'

# deadcode builds every main package (./benchmark, cmd/*, examples/*) with
# inlining off and fails on any function or method that a non-test Linux
# file of the module declares and none of those binaries links
# (scripts/deadcode.sh): production code is what a program runs. The
# exceptions — test-support packages, helpers other packages' tests call,
# the interface's user Restart — are scripts/deadcode.allow, one key and
# its reason per line; an entry that no longer covers unlinked code fails
# too. ~20 s from a cold build cache on 2 vCPUs, ~3 s warm.
deadcode:
	GO=$(GO) scripts/deadcode.sh

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
# summary block each. TRACE=1 follows each workload's timed pairs with
# `-trace 1` runs, the parent on three seeds and the change on the first
# two, and prints the per-layer metrics of the five runs with the
# difference, then one line per count metric (*_per_op, *_share,
# items_per_batch): moved when both change runs fall outside the parent's
# min-max range widened by 1 %, else same. Each block ends with a verdict
# per end-to-end metric against its BENCHMARK.json bound (not worse /
# worse / unresolved); a workload with an unresolved row runs a second
# session on fresh seeds, printed below the first. CLAIM=<metric>@<workload>
# names the pairing judged as a claimed gain instead (claim met / claim
# not met).
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

# hotpath compares the word engines' code with REV's, from the compiler's
# -S output (scripts/hotpath.sh): for every function SwissTM, TL2,
# TinySTM and internal/stm/kernel compile, the multiset of CALL targets (bounds-check panics
# included), the count of LOCK-prefixed and memory-operand XCHG
# instructions and the count of each sync/atomic method's memory
# instructions by kind (Load, Store, Swap, CompareAndSwap, Add, And/Or),
# parent beside change, then each engine's total atomics,
# total atomic sites (distinct source lines, so an inlined copy counts
# once) and total calls, which stay comparable when a body moves between
# functions, and the distinct atomic sites of all four packages together.
# Exits non-zero on any difference.
# Not part of ci: it needs a REV.
#   make hotpath REV=HEAD~1
hotpath:
	GO=$(GO) scripts/hotpath.sh $(REV)

# mutants runs the catalogue in scripts/mutants.json (scripts/mutants.sh):
# each mutant patch must make its named test fail, each widening patch
# must leave its test passing, each in a copy of the tree outside it
# (~100 s on 2 vCPUs).
mutants:
	GO=$(GO) scripts/mutants.sh

# smoke regenerates every figure at quick scale, persists the records,
# and fails if any result file is empty or any workload check failed.
smoke:
	rm -rf $(SMOKE_DIR)
	$(GO) run ./cmd/paperfigs -run all -quick -out $(SMOKE_DIR)
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
	$(GO) run ./cmd/paperfigs -run txkv -quick -threads 1,2 -repeats 2 -seed 1 -ops 200 -out $(SMOKE_DIR)/txkv
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
		-out $(SMOKE_DIR)/server -name closed
	$(GO) run ./cmd/txkvload -launch -engines swisstm,tl2,tinystm,rstm \
		-mixes read-heavy -conns 2 -ops 400 -keys 512 -seed 2 -rate 4000 \
		-out $(SMOKE_DIR)/server -name open
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
	$(GO) run ./cmd/txkvload -launch -config scripts/experiments.json -name grid -out $(GRID_DIR) -ops $(GRID_OPS)

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
ci: fmt vet build cross deadcode test bench-once race mutants smoke smoke-txkv smoke-server smoke-obs smoke-examples smoke-recover smoke-chaos smoke-coalesce grid
