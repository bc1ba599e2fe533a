# Sparker build/test entry points. Tier-1 is `make test`; `make race`
# runs the packages where pooled buffers and persistent senders could
# hide data races under the race detector; `make check` is the full
# pre-merge gate (vet + no-deprecated + no-stale-refs + tests + race +
# chaos + telemetry overhead + a few seconds of every fuzz target + the
# traced-run and flight-recorder demos). Three measuring instruments with disjoint
# jobs: `go run ./benchmark` is the engine's wall clock (gated by
# BENCHMARK.json; `make bench-pair` is its paired form), `go run
# ./cmd/sparkerbench` renders the paper's figures from the simulator,
# `make bench` runs the testing.B micro-kernels.

GO ?= go

.PHONY: build vet no-deprecated no-stale-refs loc test race test-chaos chaos-elastic overhead fuzz-smoke trace-demo obsv-demo check bench bench-pair profile

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "vet: gofmt -l lists these files; run gofmt -w:" >&2; gofmt -l . >&2; exit 1; }

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
# internal/collective, or the deleted column histogram, or the deleted
# column view and within-task kernel sharding (one task runs one fused
# pass on one core, DESIGN.md §16), or the deleted job server and
# tenancy API, or the rdd operators no training path ran (the hash
# shuffle, the join, the set operators, the per-RDD placement knob),
# the linear-regression trainer, or the five examples deleted with them
# (DESIGN.md §1). The script names the history files it exempts, and
# exempts EXPERIMENTS.md from the column-view rule only.
no-stale-refs:
	@scripts/no-stale-refs.sh

# Non-test, non-generated Go lines per package (ROADMAP item 5).
loc:
	@scripts/loc.sh

test: build
	$(GO) test ./...

# The reduction data plane (pooled wire buffers, persistent senders,
# fused decode-reduce) plus the rdd engine that drives it, the packed
# compute plane (pooled accumulators, the ParallelFor pool, the
# decoded-block cache), the telemetry instruments, and the span
# exporters; allreduce steps whose rank-0 frames cross the wire pool;
# and core's compact ring (TestCompactRingOverhead and the
# FuzzCompactSegments seeds beside the packages' TestSplitCompactMatchesDense
# and TestRingSourceMatchesSlice), whose segment bodies are parked and
# unparked across ring goroutines under the free lists' double-park
# guard (core runs its other -race suites in test-chaos and
# chaos-elastic).
race:
	$(GO) test -race ./internal/collective ./internal/comm ./internal/rdd ./internal/sched ./internal/transport ./internal/metrics ./internal/trace ./internal/obsv ./internal/linalg ./internal/mllib
	$(GO) test -race -run 'AllReduceFrameOverhead|CompactRingOverhead|FuzzCompactSegments' ./internal/core

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
# executor→driver gather frame, AllReduceFrameOverhead on allreduce rank
# 0's frame.
overhead:
	$(GO) test -run 'TelemetryOverhead|PipelineOverhead' -v ./internal/collective
	$(GO) test -run 'OwnedFrameOverhead|CompactRingOverhead|AllReduceFrameOverhead' -v ./internal/core
	$(GO) test -run 'PackedKernelOverhead' -v ./internal/linalg
	$(GO) test -run 'AllocBudget' -v ./internal/mllib

# Every Fuzz* target for a few seconds (seed corpus plus a few thousand
# mutations): the decoders that take bytes off a socket or a disk —
# serde, the two data readers, the packed partition block, the
# owned-segments frame, the driver's reader of the gathered frames, the
# ring frame and its packed chunk form — must not panic on the first
# odd input; and the packed partition block's writer must refuse and
# write what the builder it replaced refuses and writes (14 targets).
fuzz-smoke:
	scripts/fuzz-smoke.sh

# End-to-end tracing demo: a traced LR run whose event log must convert
# to a Perfetto-loadable Chrome trace with >= 2 executor tracks,
# ring-step spans, and cross-track parent stitches. Each demo and the
# profile write under a fresh `mktemp -d` directory, printed first, so
# runs never collide.
trace-demo:
	d=$$(mktemp -d) && echo "trace-demo: writing under $$d" && \
	$(GO) run ./cmd/sparker-train -model lr -profile avazu -scale 100000 -iters 3 \
		-executors 4 -cores 2 -strategy split -eventlog $$d/trace-demo.log -trace && \
	$(GO) run ./cmd/sparker-analyze -percentiles -chrome-trace $$d/trace-demo.json \
		-validate $$d/trace-demo.log && \
	echo "load $$d/trace-demo.json in ui.perfetto.dev"

# Flight-recorder demo (see DESIGN.md "Flight recorder"): a chaos run
# that kills a ring link mid-train, which must trip the always-on
# recorder into writing a postmortem bundle, which sparker-analyze
# must render and validate. Proves the whole anomaly->bundle->report
# path end to end in a couple of seconds.
obsv-demo:
	d=$$(mktemp -d) && echo "obsv-demo: writing under $$d" && \
	$(GO) run ./cmd/sparker-train -model lr -scale 200000 -iters 3 \
		-executors 3 -cores 2 -strategy split -step-deadline 500ms \
		-obsv $$d -chaos ring-kill && \
	$(GO) run ./cmd/sparker-analyze -postmortem -validate \
		"$$(ls -t $$d/bundle-*.json | head -n1)"

check: vet no-deprecated no-stale-refs test race test-chaos chaos-elastic overhead fuzz-smoke trace-demo obsv-demo

# Hot-path microbenchmarks: the before/after evidence for the
# zero-allocation reduction work (see DESIGN.md "Performance notes"),
# and the packed chunk form's encode / decode-reduce rates by density
# next to the dense kernels' (the evidence behind its ½ rule, §11),
# with the encode from a support warm and cold in DRAM (the cold rows
# cycle through 256 MB of aggregators); serde's []float64 encode and
# decode of a wide aggregator, dense and 5.6 % sparse (the tag 7 wire
# of every float vector off the ring);
# the csrgrad/{wide,tall,tiny} rows are the fused gradient kernel on one
# partition of each benchmark workload shape, and the PackPoints/{tall,wide}
# rows the packing of one such partition into its block (DESIGN.md §16); the
# RingChannels rows are the ring allreduce at P = 1, 2, 4 forced channels
# by aggregator size and network, the sweep behind the ring's width rule
# (DESIGN.md §11; repeat the target, not -count, to alternate P).
bench:
	$(GO) test -run xxx -bench 'RingReduceScatterHot|SerdeF64|PackedChunk' -benchmem ./internal/collective
	$(GO) test -run xxx -bench 'SerdeF64' -benchmem ./internal/serde
	$(GO) test -run xxx -bench 'LinalgKernels|PackPoints' -benchmem ./internal/linalg
	$(GO) test -run xxx -bench 'RingChannels' -benchtime 10x .

# The paired rule for a performance claim (benchmark/README.md): >= 10
# alternating parent/change runs of one benchmark workload, per-side
# median and quartiles, wins out of pairs, host_steal_pct.
#   make bench-pair PARENT=HEAD~1 WORKLOAD=wide-split-tcp [PAIRS=10 SEED=2 RUN_SECONDS=20]
PAIRS ?= 10
SEED ?= 2
RUN_SECONDS ?= 20
bench-pair:
	scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED) $(RUN_SECONDS)

# CPU profiles of the wide-split-tcp and wide-tree-tcp step loops, and
# the tree+IMM one (20 000 × 1 000 000, 4 executors × 1 core, loopback
# TCP), then of the tall-split-mem and tiny-split-mem ones (mem
# transport), as one command, one profile and one top per step: the
# profiles that name the layer a perf PR spends (ROADMAP item 2) —
# benchmark/ itself takes no profiling flag. Each benchmark line also
# reports the step's compute-ms/op and reduce-ms/op (the IMM stage, or
# the tree's stage 1; then the ring or gather, or the combine round,
# and the driver's pass to the new weights) and cpu-ms/op (the process's
# CPU time a step, the benchmark's cpu_ms_per_iter), so the phase split
# prints beside its top. tree.imm is the -bench pattern of the tree+imm
# step; the 1 ms tiny step runs 3 000 times, so its profile is its
# steps', not its setup's.
profile:
	d=$$(mktemp -d) && echo "profile: writing under $$d" && \
	for s in WideStepTCP/split:100 WideStepTCP/tree:100 WideStepTCP/tree.imm:100 MemStep/tall:100 MemStep/tiny:3000; do \
		n=$${s#*:} && s=$${s%:*} && f=$$(echo $$s | tr '/.' '--') && \
		$(GO) test -run '^$$' -bench "$$s\$$" -benchtime $${n}x -cpuprofile $$d/$$f.prof -o $$d/step.test ./internal/mllib && \
		echo "== $$s step" && \
		$(GO) tool pprof -top -nodecount 25 $$d/step.test $$d/$$f.prof || exit 1; \
	done
