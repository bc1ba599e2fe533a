# Sparker build/test entry points. Tier-1 is `make test`; `make race`
# runs the packages where pooled buffers and persistent senders could
# hide data races under the race detector; `make check` is the full
# pre-merge gate (vet + no-deprecated + no-stale-refs + tests + race +
# chaos + telemetry overhead + a few seconds of every fuzz target + the
# traced-run, job-server and flight-recorder demos). Three measuring instruments with disjoint
# jobs: `go run ./benchmark` is the engine's wall clock (gated by
# BENCHMARK.json; `make bench-pair` is its paired form), `go run
# ./cmd/sparkerbench` renders the paper's figures from the simulator,
# `make bench` runs the testing.B micro-kernels.

GO ?= go

.PHONY: build vet no-deprecated no-stale-refs loc test race test-chaos chaos-elastic overhead fuzz-smoke trace-demo serve-demo obsv-demo check bench bench-pair profile

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# core.Aggregate is the only aggregation entry point and mllib.LoadModel
# the only loader: a deprecated wrapper beside them is a second way in.
# Delete the old name and port its callers instead of marking it.
no-deprecated:
	@if grep -rn '^// Deprecated:' --include='*.go' --exclude='*_test.go' internal cmd examples; then \
		echo "no-deprecated: remove the deprecated names above (and port their callers)" >&2; exit 1; fi

# The per-PR bench harness is retired (EXPERIMENTS.md "Settled
# single-layer claims"): no doc, this Makefile or the verify skill may
# name its result files, its targets, or a `sparkerbench -only <id>`
# the registry does not know. Nor may one still describe ring chunks
# sized from observed step times (the chunk plan is static, DESIGN.md
# §11), or name the retired lossy wire codecs and MPI baselines of
# internal/collective, or the deleted column histogram and a column
# view whose cost grows with the dimension (the view is doubly
# compressed, DESIGN.md §16). CHANGES.md, ROADMAP.md and ISSUE.md are
# history and are exempt.
no-stale-refs:
	@scripts/no-stale-refs.sh

# Non-test, non-generated Go lines per package (ROADMAP item 5).
loc:
	@scripts/loc.sh

test: build
	$(GO) test ./...

# The reduction data plane (pooled wire buffers, persistent senders,
# fused decode-reduce) plus the rdd engine that drives it, the packed
# compute plane (shared scratch free list, ParallelFor pool, cached CSC
# views), the telemetry instruments, and the span exporters.
race:
	$(GO) test -race ./internal/collective ./internal/comm ./internal/rdd ./internal/sched ./internal/transport ./internal/metrics ./internal/trace ./internal/server ./internal/obsv ./internal/linalg ./internal/mllib

# Fault-injection suites (see DESIGN.md "Fault model"): kill/drop/delay
# matrices over the raw collectives, end-to-end core.Aggregate, and
# packed training riding the ring fallback, always under the race
# detector.
test-chaos:
	$(GO) test -race -run 'Chaos|Straggler' ./internal/collective ./internal/core ./internal/rdd ./internal/mllib

# Elastic-membership chaos gate (DESIGN.md §17): kill/evict/join/rejoin
# protocol suites plus training that rides through a kill-and-replace,
# against an undisturbed twin with its convergence and iteration-blowup
# claims — always under the race detector.
chaos-elastic:
	$(GO) test -race ./internal/membership
	$(GO) test -race -run 'Elastic' ./internal/rdd ./internal/core ./internal/mllib

# Telemetry overhead gate (see DESIGN.md "Observability"): with tracing
# off the ring hot path must allocate no more per op than the PR 1
# baselines — both the default path and the chunked pipelined path with
# chunking pinned on. Fails the build if disabled telemetry (or the
# chunk pipeline) stops being allocation-free. The packed gate holds
# the compute plane to the same bar: steady-state fused kernel calls
# must allocate nothing per pass (DESIGN.md "Packed compute plane").
# The allocation budget holds a whole split-aggregation training step on
# a 1M-feature aggregator to 2× the aggregator's bytes (DESIGN.md
# "Aggregator ownership and lifetime"). Both chunk forms are held to the
# same budgets: PipelineOverheadDense (which also pins Ops at <= 128
# bytes, what lets the collectives capture it by value) and
# PipelineOverheadPacked on the ring, OwnedFrameOverhead on the
# executor→driver gather frame.
overhead:
	$(GO) test -run 'TelemetryOverhead|PipelineOverhead' -v ./internal/collective
	$(GO) test -run 'OwnedFrameOverhead' -v ./internal/core
	$(GO) test -run 'PackedKernelOverhead' -v ./internal/linalg
	$(GO) test -run 'AllocBudget' -v ./internal/mllib

# Every Fuzz* target for a few seconds (seed corpus plus a few thousand
# mutations): the decoders that take bytes off a socket or a disk —
# serde, the two data readers, the packed partition block, the
# owned-segments frame, the ring frame and its packed chunk form — must
# not panic on the first odd input.
fuzz-smoke:
	scripts/fuzz-smoke.sh

# End-to-end tracing demo: a traced LR run whose event log must convert
# to a Perfetto-loadable Chrome trace with >= 2 executor tracks,
# ring-step spans, and cross-track parent stitches.
trace-demo:
	$(GO) run ./cmd/sparker-train -model lr -profile avazu -scale 100000 -iters 3 \
		-executors 4 -cores 2 -strategy split -eventlog /tmp/sparker-trace-demo.log -trace
	$(GO) run ./cmd/sparker-analyze -percentiles -chrome-trace /tmp/sparker-trace-demo.json \
		-validate /tmp/sparker-trace-demo.log
	@echo "load /tmp/sparker-trace-demo.json in ui.perfetto.dev"

# Job-server smoke (see DESIGN.md "Multi-tenant job server"): boots
# sparker-serve in-process, submits a training job over HTTP, waits for
# completion, and scores a prediction through the micro-batched serving
# path. Exercises the whole client-visible surface in a few seconds.
serve-demo:
	$(GO) run ./cmd/sparker-serve -smoke

# Flight-recorder demo (see DESIGN.md "Flight recorder"): a chaos run
# that kills a ring link mid-train, which must trip the always-on
# recorder into writing a postmortem bundle, which sparker-analyze
# must render and validate. Proves the whole anomaly->bundle->report
# path end to end in a couple of seconds.
obsv-demo:
	rm -rf /tmp/sparker-obsv-demo && mkdir -p /tmp/sparker-obsv-demo
	$(GO) run ./cmd/sparker-train -model lr -scale 200000 -iters 3 \
		-executors 3 -cores 2 -strategy split -step-deadline 500ms \
		-obsv /tmp/sparker-obsv-demo -chaos ring-kill
	$(GO) run ./cmd/sparker-analyze -postmortem -validate \
		"$$(ls -t /tmp/sparker-obsv-demo/bundle-*.json | head -n1)"

check: vet no-deprecated no-stale-refs test race test-chaos chaos-elastic overhead fuzz-smoke trace-demo serve-demo obsv-demo

# Hot-path microbenchmarks: the before/after evidence for the
# zero-allocation reduction work (see DESIGN.md "Performance notes"),
# and the packed chunk form's encode / decode-reduce rates by density
# next to the dense kernels' (the evidence behind its ½ rule, §11);
# the csrgrad/wide row is the fused gradient kernel on one partition of
# the benchmark's wide workloads (5 000 × 1 000 000, power-law rows).
bench:
	$(GO) test -run xxx -bench 'RingReduceScatterHot|SerdeF64|PackedChunk' -benchmem ./internal/collective
	$(GO) test -run xxx -bench 'LinalgKernels' -benchmem ./internal/linalg

# The paired rule for a performance claim (benchmark/README.md): >= 10
# alternating parent/change runs of one benchmark workload, per-side
# median and quartiles, wins out of pairs, host_steal_pct.
#   make bench-pair PARENT=HEAD~1 WORKLOAD=wide-split-tcp [PAIRS=10 SEED=2 RUN_SECONDS=20]
PAIRS ?= 10
SEED ?= 2
RUN_SECONDS ?= 20
bench-pair:
	scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED) $(RUN_SECONDS)

# CPU profile of the wide-split-tcp step loop (20 000 × 1 000 000, 4
# executors × 1 core, loopback TCP) as one command: the profile that
# names the layer a perf PR spends (ROADMAP item 2) — benchmark/ itself
# takes no profiling flag.
profile:
	$(GO) test -run '^$$' -bench WideStepTCP -benchtime 100x -cpuprofile /tmp/sparker-wide-step.prof -o /tmp/sparker-wide-step.test ./internal/mllib
	$(GO) tool pprof -top -nodecount 25 /tmp/sparker-wide-step.test /tmp/sparker-wide-step.prof
