GO ?= go
INSTS ?= 400000
BENCHTIME ?= 2s
FUZZTIME ?= 30s

BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))

.PHONY: all build test race vet fmt-check check bench bench-smoke benchreport bench-diff bench-scaling experiments experiments-check serve-smoke chaos-smoke trace-smoke char-smoke soak-smoke adaptive-smoke fuzz-smoke cover-sched clean

all: build

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order, so hidden
# inter-test dependencies fail loudly instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# check mirrors the CI gate: build, vet, formatting, tests.
check: build vet fmt-check test

# bench runs the measured benchmark suite (cycle loop, predictors,
# confidence, renamer, interpreter, full-simulator and harness sweeps)
# across every package, mirroring bench-smoke's coverage.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -timeout 1800s ./...

# bench-smoke runs every benchmark for a single iteration (the CI smoke).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchreport runs the suite and writes a BENCH_<date>.json snapshot with
# ns/op, allocs/op, simulated-instructions-per-second and the hmean-IPC
# correctness fingerprint. See cmd/benchreport.
benchreport:
	$(GO) run ./cmd/benchreport -benchtime $(BENCHTIME)

# bench-diff is the performance regression gate: rerun the hot-path
# benchmarks and fail when cycle-loop, renamer, or harness ns/op regress
# by more than 20% against the newest committed BENCH_*.json snapshot.
# A legitimate slowdown (e.g. a feature that buys accuracy with cycles)
# ships by refreshing the snapshot in the same PR — or, in CI, by
# applying the `bench-regression-ok` label, which skips this job.
bench-diff:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-diff: no committed BENCH_*.json baseline found"; exit 1; }
	@echo "bench-diff: comparing against $(BENCH_BASELINE)"
	$(GO) run ./cmd/benchreport -benchtime $(BENCHTIME) \
		-bench 'CycleLoop|Renamer|Harness' -fingerprint-insts 0 \
		-baseline $(BENCH_BASELINE) -max-regress 1.20 -gate 'CycleLoop|Renamer|Harness' \
		-out bench-diff.json

# bench-scaling measures the sharded harness at j1/j2/j4/j8 and records
# host core count + GOMAXPROCS into bench-scaling.json. With >= 4 CPUs
# the j4/j1 speedup must reach 1.5x (the CI multi-core gate); on smaller
# hosts the gate reports and passes.
bench-scaling:
	$(GO) run ./cmd/benchreport -benchtime $(BENCHTIME) \
		-bench 'HarnessParallel' -fingerprint-insts 0 \
		-min-scaling 1.5 -out bench-scaling.json

# experiments regenerates the paper's tables (Figures 8-12 + ablations).
experiments:
	$(GO) run ./cmd/experiments -exp all -insts $(INSTS)

# experiments-check regenerates every table (Table 1, Figures 8-12, paths,
# ablations, extensions, fig-adaptive) at 400k instructions, sharded over
# every core, and diffs the result against the committed
# experiments_output.txt. Only the (N.Ns) wall-clock suffix of each
# "=== name ===" header is ignored, so any refactor that shifts a table
# fails here.
STRIP_TIMING = sed -E 's/^(=== .+) \([0-9.]+s\) ===$$/\1 ===/'

experiments-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -exp all -insts 400000 -j $$(nproc) > "$$tmp/out.txt"; \
	$(STRIP_TIMING) experiments_output.txt > "$$tmp/want.txt"; \
	$(STRIP_TIMING) "$$tmp/out.txt" > "$$tmp/got.txt"; \
	diff -u "$$tmp/want.txt" "$$tmp/got.txt"; \
	echo "experiments-check: every table is byte-identical to experiments_output.txt"

# serve-smoke boots polyserve, runs an experiment through the HTTP API,
# diffs the result against cmd/experiments byte-for-byte, verifies the
# memoization cache, and drains the server with SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# trace-smoke exercises the observability subsystem end to end: polysim
# -trace for both see and dualpath, Chrome/Perfetto JSON validation
# (well-formed, monotonic per-process timestamps), the Konata export,
# and a byte-level diff proving tracing never perturbs the statistics.
# Set TRACE_OUT=<dir> to keep the exported traces (CI uploads them).
trace-smoke:
	./scripts/trace_smoke.sh

# char-smoke gates the trace ingestion + characterization suite: the
# Figure 8 placement table must match the committed golden byte-for-byte
# (and be shard-count independent), every Table 1 stand-in must survive
# the emit-trace -> polychar -> synthesize round trip within +/-10%
# relative gshare misprediction, polysim -import-trace must simulate the
# synthesized stand-in, and corrupt traces must fail with typed
# diagnostics. Set CHAR_OUT=<dir> to keep the artifacts (CI uploads them
# on failure).
char-smoke:
	./scripts/char_smoke.sh

# adaptive-smoke gates the phase-aware adaptive policy family: the
# fig-adaptive table on the m88ksim-phased showcase (150k instructions)
# must be byte-identical to scripts/golden/adaptive_smoke_150k.txt and
# across shard counts, and the online bandit must strictly beat every
# static policy in its candidate set while holding >= 90% of the
# per-epoch oracle's IPC.
adaptive-smoke:
	./scripts/adaptive_smoke.sh

# soak-smoke is the distributed-mode gate: 1 coordinator + 3 race-built
# workers run a 32-cell sweep while workers and then the coordinator are
# SIGKILLed and restarted mid-sweep; the result must stay byte-identical
# to a single-node run with zero lost or duplicated cells (store
# cell-count + hash audit). Set SOAK_LOGS=<dir> to keep process logs.
soak-smoke:
	./scripts/soak_smoke.sh

# chaos-smoke is the robustness gate: injected micro-architectural faults
# must surface as typed machine checks, audit-off output must match the
# committed golden table, polyserve must survive repeated worker panics
# (quarantining the offender), and a torn journal must recover on restart.
chaos-smoke:
	./scripts/chaos_smoke.sh

# fuzz-smoke explores the pipeline-vs-interpreter differential oracle
# for FUZZTIME beyond the committed seed corpus. Any crasher it finds is
# a real simulator correctness bug by construction.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineVsInterp$$' -fuzztime $(FUZZTIME) ./internal/isa/progfuzz

# cover-sched gates the deterministic scheduler: the engine every
# experiment's bit-for-bit reproducibility rests on must keep >= 85%
# statement coverage, measured under the race detector.
cover-sched:
	@$(GO) test -race -coverprofile=sched.coverprofile ./internal/sched
	@total=$$($(GO) tool cover -func=sched.coverprofile | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	rm -f sched.coverprofile; \
	echo "internal/sched statement coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { if (t+0 < 85) { print "FAIL: internal/sched coverage " t "% is below the 85% gate"; exit 1 } }'

clean:
	$(GO) clean ./...
