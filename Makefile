GO ?= go
INSTS ?= 400000
BENCHTIME ?= 2s
FUZZTIME ?= 30s

.PHONY: all build test race vet fmt-check check bench bench-smoke bench-ab experiments experiments-check serve-smoke chaos-smoke trace-smoke char-smoke soak-smoke fuzz-smoke cover-sched clean

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

# bench-ab is the performance regression gate. It builds the root
# package's test binary at the merge base of BASE and HEAD (in a
# temporary git worktree) and from the working tree, then runs
# cmd/benchab on the two: 20 alternating pairs of 1 s runs of the
# CycleLoop, Renamer and HarnessSweep benchmarks, failing only when the
# head is slower with 99% confidence, plus the j4/j1 >= 1.5x harness
# scaling floor on hosts with at least 4 CPUs. It takes about 5 minutes;
# run nothing else heavy meanwhile. Usage: make bench-ab BASE=main
bench-ab:
	@test -n "$(BASE)" || { echo "bench-ab: set BASE=<rev>, e.g. make bench-ab BASE=main"; exit 1; }
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	base=$$(git merge-base $(BASE) HEAD); \
	echo "bench-ab: base $$base (merge base of $(BASE) and HEAD), head the working tree"; \
	git worktree add --quiet --detach "$$tmp/base" $$base; \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base.test" .); \
	$(GO) test -c -o "$$tmp/head.test" .; \
	$(GO) run ./cmd/benchab "$$tmp/base.test" "$$tmp/head.test"

# experiments regenerates the paper's tables (Figures 8-12 + ablations).
experiments:
	$(GO) run ./cmd/experiments -exp all -insts $(INSTS)

# experiments-check regenerates every table (Table 1, Figures 8-12, paths,
# ablations, extensions, fig-adaptive) at 400k instructions, sharded over
# every core, and diffs the result against the committed
# experiments_output.txt. Only the (N.Ns) wall-clock suffix of each
# "=== name ===" header is ignored, so any refactor that shifts a table
# fails here. go test's TestCommittedTables checks 14 of the 21 sections;
# the Figure 9-12 sweeps and ext-* are checked only here.
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

# trace-smoke runs polysim -trace as a process: Chrome/Perfetto exports
# for see and dualpath, a Konata export (both formats chosen by file
# extension), and a byte-level diff proving tracing never perturbs the
# statistics. TestTraceExportGolden checks the exports' structure.
# Set TRACE_OUT=<dir> to keep the exported traces (CI uploads them).
trace-smoke:
	./scripts/trace_smoke.sh

# char-smoke runs the trace CLIs as processes: a polysim -emit-trace ->
# polychar -trace -synth -> polysim -import-trace round trip, and corrupt
# traces must fail with typed diagnostics. Set CHAR_OUT=<dir> to keep the
# artifacts (CI uploads them on failure).
char-smoke:
	./scripts/char_smoke.sh

# soak-smoke is the distributed-mode gate: 1 coordinator + 3 race-built
# workers run a 32-cell sweep while workers and then the coordinator are
# SIGKILLed and restarted mid-sweep; the result must stay byte-identical
# to a single-node run with zero lost or duplicated cells (store
# cell-count + hash audit). Set SOAK_LOGS=<dir> to keep process logs.
soak-smoke:
	./scripts/soak_smoke.sh

# chaos-smoke is the service robustness gate: polyserve must survive
# repeated worker panics (quarantining the offender), and a torn journal
# must recover on restart.
chaos-smoke:
	./scripts/chaos_smoke.sh

# fuzz-smoke runs every fuzz target for FUZZTIME beyond its committed
# seed corpus, one run per target (go test -fuzz takes one target at a
# time): the pipeline-vs-interpreter differential oracle, the
# copy-on-write memory against a flat model, the PBT1 trace decoder, the
# config-document decoder, polyserve's journal loader, and polyserve's
# request decoders (job and cell bodies).
# -fuzzminimizetime 100x stops shrinking each new interesting input after
# 100 executions. By default the engine minimizes one for up to 60 s and
# leaves those executions out of its count, so a 5 s FuzzLoadJournal run
# spends its whole budget shrinking its first find and reports 5-10
# executions, against about 2,000-3,500 with the cap. Any crasher is a
# real bug; commit it as a seed under the package's testdata/fuzz.
fuzz-smoke:
	@set -e; for t in FuzzPipelineVsInterp:./internal/isa/progfuzz \
		FuzzMemory:./internal/isa FuzzTraceDecode:./internal/btrace \
		FuzzDecodeConfig:./internal/pipeline FuzzLoadJournal:./internal/server \
		FuzzRequestDecoders:./internal/server; do \
		echo "fuzz-smoke: $${t%%:*} for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$${t%%:*}\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 100x "$${t#*:}"; \
	done

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
