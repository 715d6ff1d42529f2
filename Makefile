GO ?= go

.PHONY: all build test test-times loc bench-test race race-robust vet lint lint-build lint-fix lint-facts-clean fmt-check ci reproduce bench bench-compare mem-ceiling chaos clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-times reports the tier-1 `go test ./...` wall clock per package,
# slowest first, with caching off. Packages run concurrently (go test's
# default -p), so each time is measured under that load. A report, not
# part of ci: failing packages are listed too, and the target fails
# when go test does.
test-times:
	@out=$$($(GO) test -count=1 ./... 2>&1); status=$$?; \
	echo "$$out" | awk '($$1 == "ok" || $$1 == "FAIL") && $$3 ~ /^[0-9.]+s$$/ { printf "%9s  %-4s %s\n", $$3, $$1, $$2 }' | sort -rn; \
	exit $$status

race:
	$(GO) test -race ./...

# BASE is the commit loc and bench-compare measure the working tree
# against.
BASE ?= HEAD~1

# loc reports the line delta of the working tree against BASE per Go
# package directory, from git diff --numstat: lines added and deleted
# in non-test files, then in _test.go files, then the net non-test
# delta. A rename counts as a delete plus an add. Stage new files first
# (git add -A): git diff sees tracked files only.
loc:
	@printf '%-28s %7s %7s %7s %7s %8s\n' package +code -code +test -test net-code
	@git diff --numstat --no-renames $(BASE) -- '*.go' | awk -F'\t' '{ \
		dir = $$3; sub(/\/[^\/]*$$/, "", dir); if (dir == $$3) dir = "."; \
		k = ($$3 ~ /_test\.go$$/) ? "test" : "code"; add[dir, k] += $$1; del[dir, k] += $$2; seen[dir] = 1 } \
		END { for (d in seen) printf "%-28s %7d %7d %7d %7d %+8d\n", d, \
			add[d, "code"], del[d, "code"], add[d, "test"], del[d, "test"], add[d, "code"] - del[d, "code"] }' | sort

vet:
	$(GO) vet ./...

# LINTBIN is the built project linter; `go vet -vettool=` needs a real
# executable (and an absolute path), not `go run`.
LINTBIN := bin/bcachelint

lint-build:
	$(GO) build -o $(LINTBIN) ./cmd/bcachelint

# lint runs the eight project analyzers (determinism, probesafe,
# oraclepair, statjson, lockdiscipline, atomicdiscipline, splitstream,
# goroutinelife; see DESIGN.md §12 and §16) twice over the tree:
# standalone — whole-module load, widest compilations, which catches a
# package whose test files were deleted wholesale — and through
# `go vet -vettool=`, exercising the unitchecker protocol the go command
# drives (including cross-package fact flow via PackageVetx).
# Suppressions use //bcachelint:allow analyzer(reason).
lint: lint-build
	$(LINTBIN) ./...
	$(GO) vet -vettool=$(abspath $(LINTBIN)) ./...

# lint-fix prints the findings to work through, grouped by analyzer with
# file:line links; it never fails the build.
lint-fix: lint-build
	-$(LINTBIN) -group ./...

# lint-facts-clean proves the cross-package fact encoding deterministic:
# two consecutive standalone runs must write byte-identical .vetx files.
# A diff here means an analyzer is emitting facts from unsorted state,
# which would defeat the go command's vet caching and poison
# reproducibility of lint results themselves.
lint-facts-clean: lint-build
	rm -rf bin/facts-a bin/facts-b
	$(LINTBIN) -write-facts bin/facts-a ./...
	$(LINTBIN) -write-facts bin/facts-b ./...
	diff -r bin/facts-a bin/facts-b
	@echo "fact files byte-stable across runs"

# bench-test runs the benchmark module's own vet and tests. bench/ is a
# Go module of its own, so the root `go test ./...` never reaches it.
bench-test:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# race-robust is the focused race gate for the crash-safety layer: the
# unit scheduler, checkpoint, and fault injector do real concurrent
# mutation, so they get their own fast gate ahead of the full race run.
race-robust:
	$(GO) test -race ./internal/experiment/... ./internal/fault/...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# ci is the full local gate: formatting, vet (stdlib copylocks/atomic
# back up the custom analyzers), the project linters, the fact-encoding
# determinism check, build, the benchmark module's vet and tests, the
# focused robustness race gate, the
# race-enabled test suite (probes attached under -race is an explicit
# acceptance criterion of the observability layer), the
# distributed-execution chaos suite — promoted to fatal per its
# documented path after a clean week since PR 7 (see CHANGES.md, PR 10)
# — and the reproduce drift gate.
# lint is fatal: a finding without a justified //bcachelint:allow fails
# CI.
#
# The live-telemetry end-to-end test (cmd/experiments/main_test.go)
# runs inside race, so it is fatal like every other test.
#
# bench-compare and mem-ceiling run last as non-fatal reports, each
# surfacing a labeled warning on failure so a scan of the CI log finds
# them: three benchmark rounds or one peak RSS on a shared box are too
# noisy to hard-gate. Promotion path to fatal: once each has a clean
# week in CI logs, drop its `|| echo` fallback so the recipe's exit
# status gates the build.
ci: fmt-check vet lint lint-facts-clean build bench-test race-robust race chaos reproduce
	@$(MAKE) bench-compare || echo "[bench-regression] WARNING: a benchmark run failed, or an end-to-end metric regressed against $(BASE) (non-fatal; rerun 'make bench-compare' on a quiet box)"
	@$(MAKE) mem-ceiling || echo "[mem-ceiling] WARNING: a benchmark workload's process peak RSS exceeds its ceiling (non-fatal; see above)"

# chaos runs the distributed-execution kill/interrupt suite under -race:
# worker subprocesses SIGKILLed mid-campaign, SIGINT drain, and
# coordinator-crash shard recovery, each asserting bit-identical merges
# against the sequential oracle (see internal/dist/distrun/chaos_test.go),
# plus the whole internal/dist and internal/dist/distrun packages and the
# CLI test that a -workers-procs run prints the in-process CSV byte for
# byte, with and without losing every worker.
# Fatal in ci since PR 10: the suite had been green since PR 7, so per
# its documented promotion path it now gates the build as a hard
# prerequisite of the ci target.
chaos:
	$(GO) test -race -count=1 ./internal/dist/distrun
	$(GO) test -race -count=1 ./internal/dist
	$(GO) test -race -count=1 -run TestWorkersProcsMatchesInProcess ./cmd/experiments

# reproduce is the output drift gate: it regenerates every table at
# default scale as CSV, checkpointing every unit, and diffs it against
# the committed full_experiments.csv. It then renders the text format
# from that checkpoint (-resume: nothing is simulated again) and diffs
# it against full_experiments.txt; the text format's timing footers go
# to stderr, so its stdout is deterministic. About 35 s on 2 vCPUs. A
# deliberate change to the output regenerates both files with the same
# commands:
#   go run ./cmd/experiments -format csv -workers 2 -checkpoint bin/reproduce.ckpt -o full_experiments.csv
#   go run ./cmd/experiments -format text -resume -checkpoint bin/reproduce.ckpt -o full_experiments.txt
reproduce:
	$(GO) build -o bin/experiments ./cmd/experiments
	bin/experiments -format csv -workers 2 -checkpoint bin/reproduce.ckpt -o bin/reproduce.csv
	diff -u full_experiments.csv bin/reproduce.csv
	bin/experiments -format text -resume -checkpoint bin/reproduce.ckpt -o bin/reproduce.txt
	diff -u full_experiments.txt bin/reproduce.txt
	@echo "reproduce: every table matches full_experiments.csv and full_experiments.txt"

# BENCH_RUN defines the shell function bench_run for the recipes below:
# `bench_run DIR OUT ARGS...` runs `bash bench/run.sh ARGS...` in DIR
# with its stdout captured in OUT, and fails with its own message when
# run.sh exits non-zero or its last line does not read "correct":true
# with "failed":0. OUT is a file, not a pipe into tail, because sh gives
# a pipeline the exit status of its last command, which would hide a
# crashed run.
BENCH_RUN = bench_run() { \
	dir=$$1 out=$$2; shift 2; mkdir -p "$$(dirname "$$out")" || return 1; \
	(cd "$$dir" && bash bench/run.sh "$$@") >"$$out" || { \
		echo "bench/run.sh $$* in $$dir failed (exit $$?); its output is in $$out"; return 1; }; \
	case "$$(tail -n 1 "$$out")" in \
	*'"correct":true,'*'"failed":0,'*) ;; \
	*) echo "bench/run.sh $$* in $$dir: output differs from its golden digests or operations failed; see $$out"; return 1;; \
	esac; \
}

# bench-compare runs every benchmark workload for three rounds on BASE
# (extracted with git archive into .bench_build/base) and then on the
# working tree, one after the other so the two never share the CPUs,
# and prints bench/run.sh -compare's verdict per workload and
# end-to-end metric. It fails when either run fails or reports wrong
# output, or when any verdict reads regressed. The base tree sits inside
# this checkout, so it is built with -buildvcs=false: otherwise go would
# stamp it with the checkout's commit, and its result would name the
# wrong one.
bench-compare:
	@b=$(CURDIR)/.bench_build; $(BENCH_RUN); \
	rm -rf "$$b/base" && mkdir -p "$$b/base" && \
	git archive -o "$$b/base.tar" $(BASE) && tar -x -f "$$b/base.tar" -C "$$b/base" || exit 1; \
	echo "bench-compare: running $(BASE)"; \
	(export GOFLAGS="$$GOFLAGS -buildvcs=false"; bench_run "$$b/base" "$$b/bench-compare-base.out" \
		--workload all --rounds 3 --trace 0 -o "$$b/bench-compare-base.json") || exit 1; \
	echo "bench-compare: running the working tree"; \
	bench_run . "$$b/bench-compare-change.out" \
		--workload all --rounds 3 --trace 0 -o "$$b/bench-compare-change.json" || exit 1; \
	bash bench/run.sh -compare "$$b/bench-compare-base.json" "$$b/bench-compare-change.json" >"$$b/bench-compare.txt" || { \
		echo "bench-compare: bench/run.sh -compare failed"; exit 1; }; \
	cat "$$b/bench-compare.txt"; \
	if awk '$$NF == "regressed" { r = 1 } END { exit !r }' "$$b/bench-compare.txt"; then \
		echo "bench-compare: an end-to-end metric regressed against $(BASE)"; exit 1; \
	fi

# MEM_CEILING_<workload> is the process peak RSS, in MiB, that one
# benchmark run of the workload may reach: about 25% above its median
# over a 10-round run (bench/run.sh --workload all --rounds 10
# --trace 0) on 2 vCPUs with go1.24.0 (suite 30.7 MiB, missrate-spill
# 14.0 MiB, timed 17.1 MiB, sweep 21.5 MiB).
MEM_CEILING_suite = 38
MEM_CEILING_missrate-spill = 18
MEM_CEILING_timed = 21
MEM_CEILING_sweep = 27

# mem-ceiling runs the four benchmark workloads once each (bench/run.sh,
# about 10 s apiece) and fails when a run's output does not match its
# golden digests or its peak_rss_mb — the experiments process's peak
# RSS — exceeds the workload's ceiling above. Non-fatal in ci because
# RSS varies with the host's Go version and page size; promotion path
# to fatal: once it has a clean week in CI logs, drop the `|| echo`
# fallback above so its exit status gates the build.
mem-ceiling:
	@$(BENCH_RUN); for w in suite missrate-spill timed sweep; do \
		case $$w in suite) ceil=$(MEM_CEILING_suite);; missrate-spill) ceil=$(MEM_CEILING_missrate-spill);; \
		timed) ceil=$(MEM_CEILING_timed);; sweep) ceil=$(MEM_CEILING_sweep);; esac; \
		out=$(CURDIR)/.bench_build/mem-ceiling-$$w.out; \
		bench_run . "$$out" --workload $$w --rounds 1 --trace 0 || exit 1; \
		line=$$(tail -n 1 "$$out"); \
		rss=$$(echo "$$line" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p'); \
		if [ -z "$$rss" ]; then echo "mem-ceiling: $$w: no peak_rss_mb in: $$line"; exit 1; fi; \
		if awk -v r="$$rss" -v c="$$ceil" 'BEGIN { exit !(r > c) }'; then \
			echo "mem-ceiling: $$w peak RSS $$rss MiB exceeds its $$ceil MiB ceiling"; exit 1; \
		fi; \
		echo "mem-ceiling: $$w peak RSS $$rss MiB within its $$ceil MiB ceiling"; \
	done

# bench runs the probe-overhead benchmarks (see internal/obs/alloc_test.go
# for how to read the two levels).
bench:
	$(GO) test -bench 'Overhead' -benchmem -run '^$$' ./internal/obs

clean:
	$(GO) clean ./...
