# Developer entry points mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: build test test-full race ci bench bench-smoke bench-json perf-smoke perf-compare fuzz-smoke repro-smoke chaos-smoke chan-smoke obs-smoke api-check fmt vet eval loc check-run-patterns

build:
	$(GO) build ./...

# Fast suite — what the CI test job runs; finishes in seconds.
test:
	$(GO) test -short ./...

# Full suite, including the slow differential and theorem sweeps.
test-full:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Non-test Go lines per package directory, then the total; perfbench/
# (a module of its own, the benchmark harness) is left out. The line
# count a simplification is judged by: run it before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Every -run pattern of a Makefile or CI test step selects tests that
# exist, in every package the step lists — the CI test job runs it
# (scripts/check-run-patterns.sh).
check-run-patterns:
	bash scripts/check-run-patterns.sh

# Everything CI gates on, in CI order.
ci: build vet fmt test check-run-patterns race

# The paper's evaluation artifacts as testing.B benchmarks, including
# the campaign and work-stealing DPOR scaling runs.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x .

# One-iteration pass over every benchmark — the CI smoke job: catches
# benchmarks that panic or regress catastrophically, in seconds.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -short -run '^$$' .

# Discover every native fuzz target and run each for FUZZTIME — the CI
# fuzz-smoke job. Open-ended local sessions: go test -fuzz <target>
# -fuzztime 10m <pkg>.
FUZZTIME ?= 20s
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); do \
			echo "== $$pkg $$target ($(FUZZTIME)) =="; \
			$(GO) test -fuzz "^$$target$$" -fuzztime $(FUZZTIME) -run '^$$' $$pkg || exit 1; \
		done; \
	done

# Capture → replay → minimize one known-buggy benchmark end-to-end:
# the firstbug sweep writes one minimized counterexample artifact per
# (benchmark, engine) cell and -verify re-reads and replays each from
# disk — the CI gate on the repro subsystem.
REPRO_DIR ?= /tmp/repro-smoke
repro-smoke:
	rm -rf $(REPRO_DIR)
	$(GO) run ./cmd/eval -fig firstbug -bench philosophers-3 \
		-engines dpor,random,pdpor:2 -limit 5000 -maxsteps 500 \
		-quiet -repro $(REPRO_DIR) -minimize -verify
	$(GO) run ./cmd/lazylocks -bench philosophers-3 \
		-replay $(REPRO_DIR)/philosophers-3__dpor.json > /dev/null
	@echo "repro-smoke: artifacts in $(REPRO_DIR) captured, minimized and replay-verified"

# Fault containment end-to-end under the race detector — the CI
# chaos-smoke job (see docs/ROBUSTNESS.md): the panic/divergence/
# timeout/quarantine tests, then a hostile campaign through the CLI —
# panicking and diverging benchmarks explored by DFS under the stall
# watchdog and a per-cell deadline.
chaos-smoke:
	$(GO) test -race -count=1 -run 'Chaos|Hostile|Diverge|Panic|Stall|Truncated' \
		./internal/model/ ./internal/explore/ ./internal/campaign/ ./internal/goharness/ ./sct/
	$(GO) run ./cmd/eval -fig campaign -bench hostile -engines dfs \
		-limit 2000 -stall-timeout 100ms -cell-timeout 60s
	@echo "chaos-smoke: hostile programs contained"

# Channel subsystem end-to-end under the race detector — the CI
# chan-smoke job (see docs/ENGINES.md "Channel dependence rules"):
# the hand-counted DPOR schedule-count gates, the chan differential
# oracle (every engine × both backends vs exhaustive DFS, committed
# fuzz corpus included), the backend ablation, the trace round-trip
# for the channel kinds and the channel doc sync — the packages that
# hold Chan tests — then the channel family of the corpus swept
# across the firstbug engine grid through the CLI, which must find
# every planted bug (assertion, send-on-closed panic, lost-wakeup
# deadlock) and render the new event kinds.
chan-smoke:
	$(GO) test -race -count=1 -run 'Chan' ./internal/explore/ ./internal/trace/ ./sct/
	$(GO) test -race -count=1 -run 'TestBackendAblationExact|TestChanEquivalenceCorpus' ./internal/explore/
	$(GO) run ./cmd/eval -fig firstbug -bench chan -limit 20000 -maxsteps 2000
	@echo "chan-smoke: channel family race-clean, engines agree, every planted bug found"

# Observability end-to-end — the CI obs-smoke job (see
# docs/OBSERVABILITY.md): the no-perturbation/heartbeat/flight test
# gates, the in-process CLI scenario (TestObsSmoke probes the expvar
# and pprof endpoints and resumes from a mixed stream), then a real
# `go run` campaign with -progress/-heartbeat/-metrics whose stream
# must carry heartbeat lines and resume to an empty remainder.
OBS_STREAM ?= /tmp/obs-smoke.jsonl
obs-smoke:
	$(GO) test -count=1 -run 'TestObsSmoke$$|TestObsFlagValidation$$' ./cmd/eval/
	$(GO) test -count=1 -run 'TestRunnerHeartbeats|TestMixedStream|TestFlightDump|TestCampaignMixedStreamResume|TestCampaignFlightRecorder|TestHeartbeatIndexRemapping' \
		./internal/campaign/ ./sct/
	$(GO) run ./cmd/eval -fig campaign -bench synth-10 -engines dfs -limit 100000 \
		-json -quiet -progress -heartbeat 50ms -metrics 127.0.0.1:0 > $(OBS_STREAM)
	@grep -q '"type":"heartbeat"' $(OBS_STREAM) || { echo "obs-smoke: no heartbeat lines in $(OBS_STREAM)"; exit 1; }
	@out="$$($(GO) run ./cmd/eval -fig campaign -bench synth-10 -engines dfs -limit 100000 \
		-json -quiet -resume $(OBS_STREAM))"; \
	if [ -n "$$out" ]; then \
		echo "obs-smoke: resume from a complete mixed stream re-ran cells:"; echo "$$out"; exit 1; \
	fi
	@echo "obs-smoke: heartbeats streamed, endpoints served, mixed stream resumed clean"

# The BENCHMARK.json workloads, in CI and benchmark order.
PERF_WORKLOADS := fig2-dpor fig3-caching firstbug-grid harness-twins

# The perf trajectory artifact: two seed-1 runs of every BENCHMARK.json
# workload, one traced (per-layer metrics) and one untraced (end-to-end
# metrics: wall_s, peak_heap_mb, ...), merged into one report per
# workload whose metrics hold both sets and which is correct only if
# both runs were. The reports are written as one JSON object keyed by
# workload name. Set PR to the current PR number: make bench-json PR=18
# writes BENCH_PR18.json. BENCH_SECONDS passes --seconds to every run
# (perfbench's default when empty; 0 is the shortest run). A failed run
# fails the target and writes no file.
BENCH_SECONDS ?=
bench-json:
	@if [ -z "$(PR)" ]; then echo "bench-json: set PR, e.g. make bench-json PR=18" >&2; exit 1; fi
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for w in $(PERF_WORKLOADS); do \
		for trace in 1 0; do \
			echo "== perfbench $$w --trace $$trace ==" >&2; \
			bash perfbench/run.sh --workload $$w --seed 1 --trace $$trace \
				$(if $(BENCH_SECONDS),--seconds $(BENCH_SECONDS)) > "$$tmp/$$w.$$trace" || exit 1; \
			tail -n 1 "$$tmp/$$w.$$trace" > "$$tmp/$$w.$$trace.json"; \
		done; \
		jq -c -s --arg w "$$w" '.[0] as $$t | .[1] as $$e | {($$w): ($$t + {correct: ($$t.correct and $$e.correct), metrics: ($$t.metrics + $$e.metrics)})}' \
			"$$tmp/$$w.1.json" "$$tmp/$$w.0.json" >> "$$tmp/all" || exit 1; \
	done; \
	jq -s add "$$tmp/all" > "$$tmp/bench.json" || exit 1; \
	mv "$$tmp/bench.json" BENCH_PR$(PR).json
	@echo "wrote BENCH_PR$(PR).json"

# The repo benchmark's correctness checks — the CI perf-smoke job (see
# perfbench/README.md): the shortest run of every BENCHMARK.json
# workload (--seconds 0: the fewest passes that give 100 verdict
# samples), each cell checked against perfbench/answers.json. Any FAIL
# line exits 1; no timing is asserted. The last pass runs fig2-dpor
# traced: its wrapper coroutines lack model.SnapshotReuser, so it is
# the path where the undo log falls back to fresh snapshots, and it
# checks that traced and untraced Results are identical.
perf-smoke:
	@for w in $(PERF_WORKLOADS); do \
		echo "== perfbench $$w =="; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 0 --trace 0 || exit 1; \
	done
	@echo "== perfbench fig2-dpor (traced) =="
	@bash perfbench/run.sh --workload fig2-dpor --seed 1 --seconds 0 --trace 1
	@echo "perf-smoke: every workload's cells match perfbench/answers.json"

# Alternating parent/change pairs of one perfbench workload (see
# scripts/perf-compare.sh), the protocol a performance claim is judged
# by: make perf-compare PARENT=../parent WORKLOAD=firstbug-grid PAIRS=10
PAIRS ?= 10
perf-compare:
	bash scripts/perf-compare.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Facade hygiene — the CI api-check job. The public sct package is the
# only supported entry point: examples must build against it alone
# (no repro/internal imports at all), the cmd tools must not reach
# into the explore/campaign/repro internals, the godoc examples
# (sct.ExampleRun is the embedding quickstart) must run, the
# docs/ENGINES.md engine catalogue and Options contract must match the
# registry and explore.Options, and the docs/OBSERVABILITY.md counter
# catalogue must match Progress.
api-check:
	$(GO) build ./examples/... ./cmd/... ./sct/...
	@bad="$$(grep -rn 'repro/internal' examples/ || true)"; \
	if [ -n "$$bad" ]; then \
		echo "examples/ must use only the public sct facade:"; echo "$$bad"; exit 1; \
	fi
	@bad="$$(grep -rnE '"repro/internal/(explore|campaign|repro)"' cmd/ || true)"; \
	if [ -n "$$bad" ]; then \
		echo "cmd/ must not import explore/campaign/repro internals:"; echo "$$bad"; exit 1; \
	fi
	$(GO) test -run '^Example' -count=1 ./sct/ ./internal/...
	$(GO) test -run '^TestEnginesDocInSync$$|^TestOptionsDocInSync$$|^TestObservabilityDocInSync$$|^TestChannelDocInSync$$' -count=1 ./sct/
	@echo "api-check: facade clean"

# Regenerate the paper figures at the full budget (slow; see -help for
# -bench/-family filters, -fig campaign -json for streaming results).
eval:
	$(GO) run ./cmd/eval -fig all -limit 100000
