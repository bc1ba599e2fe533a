package mllib_test

// Allocation budget of the split- and tree-aggregation steps: the
// engine may allocate at most a small multiple of the aggregator's own
// size per training step at steady state. Everything the aggregator
// passes through — per-partition accumulators, the resident IMM
// aggregator, ring wire buffers, result frames and tree blocks, the
// driver's gathered or merged vector — is either reused or touched once
// (DESIGN.md "Aggregator ownership and lifetime"), so a regression here
// means a copy or a fresh buffer crept back onto the hot path.

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"sparker/internal/data"
	"sparker/internal/metrics"
	"sparker/internal/mllib"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// stepShape is one benchmark workload's data: samples × features, nnz
// per sample and its power-law exponent (data.ClassificationSpec).
type stepShape struct {
	name                   string
	samples, features, nnz int
	alpha                  float64
}

// The shapes of the benchmark's workloads: wide (wide-split-tcp,
// wide-tree-tcp), tall (tall-split-mem) and tiny (tiny-split-mem).
var (
	wideShape = stepShape{"wide", 20_000, 1_000_000, 15, 1.5}
	tallShape = stepShape{"tall", 400_000, 2_000, 30, 0}
	tinyShape = stepShape{"tiny", 8_000, 512, 15, 0}
)

// stepCluster boots shape as the benchmark does (4 executors × 1 core,
// ring parallelism 4) on net and returns a function running one
// RunGradientDescent{Iterations: 1} step under strategy s, fed the
// previous step's weights, and the cluster's context.
func stepCluster(tb testing.TB, net transport.Network, s mllib.Strategy, sh stepShape) (step func(), aggBytes uint64, ctx *rdd.Context) {
	tb.Helper()
	points := data.GenClassification(data.ClassificationSpec{
		Samples: sh.samples, Features: sh.features, NNZPerSample: sh.nnz, NNZAlpha: sh.alpha, Seed: 1,
	})
	ctx, err := rdd.NewContext(rdd.Config{
		Name: sh.name + "-" + tb.Name(), NumExecutors: 4, CoresPerExecutor: 1, RingParallelism: 4, Network: net,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx.Close()
		net.Close()
	})
	train := rdd.FromSlice(ctx, points, ctx.TotalCores()).Cache()
	wts := make([]float64, sh.features)
	cfg := mllib.GDConfig{Iterations: 1, Strategy: s, Parallelism: 4}
	return func() {
		next, _, err := mllib.RunGradientDescent(train, mllib.LogisticGradient{}, mllib.SimpleUpdater{}, wts, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		wts = next
	}, uint64(8 * (sh.features + 2)), ctx
}

// wideStepCluster is stepCluster of the wide shape.
func wideStepCluster(tb testing.TB, net transport.Network, s mllib.Strategy) (func(), uint64, *rdd.Context) {
	return stepCluster(tb, net, s, wideShape)
}

// wideStrategies are the steps the budget and the profile cover: the
// split step, Spark's tree, whose stage-1 tasks recycle their
// accumulators, and the tree with in-memory merge, whose executors
// gather one frame each. The driver reads each step's reduced aggregate
// from its frames.
var wideStrategies = []mllib.Strategy{mllib.StrategySplit, mllib.StrategyTree, mllib.StrategyTreeIMM}

// TestAllocBudgetWideStep holds the steady-state step to 2× the
// aggregator's bytes: the new-weights vector, which the update writes
// straight from the gathered frames, is the one aggregator-sized
// allocation a step makes — no gathered or merged vector is assembled
// — and the rest is frames, blocks, closures and pool refills (at the
// parent of the change that introduced this test a split step allocated
// ≈ 25×; the tree step ≈ 9.6× before its driver merged from the wire).
// Under -race the wire pool's double-park guard is armed, so the same
// run also proves the result-frame hand-off (executor → transport →
// driver waiter → reader → pool) parks every frame once.
func TestAllocBudgetWideStep(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-feature cluster")
	}
	for _, s := range wideStrategies {
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			step, aggBytes, _ := wideStepCluster(t, transport.NewMem(), s)
			for i := 0; i < 3; i++ { // pack the partitions, fill the pools and free lists
				step()
			}
			// How many stage-1 accumulators overlap decides how many the
			// free list holds between steps, so a short window can count
			// a vector or two more or less than the steady one a step.
			const steps = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			perStep := (after.TotalAlloc - before.TotalAlloc) / steps
			t.Logf("steady-state allocation: %.1f MB/step = %.2f × the %.1f MB aggregator",
				float64(perStep)/1e6, float64(perStep)/float64(aggBytes), float64(aggBytes)/1e6)
			if perStep > 2*aggBytes {
				t.Fatalf("step allocates %d bytes, budget is 2 × %d", perStep, aggBytes)
			}
		})
	}
}

// BenchmarkWideStepTCP is the wide-split-tcp and wide-tree-tcp step
// loops, and the tree+IMM one, as profiling targets: go test -run '^$'
// -bench 'WideStepTCP/tree$' -cpuprofile … ./internal/mllib. Beside
// ns/op it reports the step's two aggregation phases from the context's
// recorder: compute-ms/op (the IMM stage, or the tree's stage 1) and
// reduce-ms/op (the ring stage or the IMM gather, or the tree's combine
// round, and on every strategy the driver's one pass from the frames to
// the new weights); and cpu-ms/op, the process's user + system CPU time
// a step (getrusage over the timed loop).
func BenchmarkWideStepTCP(b *testing.B) {
	for _, s := range wideStrategies {
		b.Run(fmt.Sprint(s), func(b *testing.B) {
			benchStep(b, transport.NewTCP(), s, wideShape)
		})
	}
}

// BenchmarkMemStep is the tall-split-mem and tiny-split-mem step loops
// on the mem transport, with BenchmarkWideStepTCP's metrics.
func BenchmarkMemStep(b *testing.B) {
	for _, sh := range []stepShape{tallShape, tinyShape} {
		b.Run(sh.name, func(b *testing.B) {
			benchStep(b, transport.NewMem(), mllib.StrategySplit, sh)
		})
	}
}

// benchStep times the steps of shape sh under strategy s on net, after
// three untimed ones.
func benchStep(b *testing.B, net transport.Network, s mllib.Strategy, sh stepShape) {
	step, aggBytes, ctx := stepCluster(b, net, s, sh)
	for i := 0; i < 3; i++ {
		step()
	}
	b.SetBytes(int64(aggBytes))
	b.ReportAllocs()
	before, cpu := ctx.Metrics().Snapshot(), processCPU(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	cpu = processCPU(b) - cpu
	after := ctx.Metrics().Snapshot()
	for _, ph := range []struct{ phase, unit string }{
		{metrics.PhaseAggCompute, "compute-ms/op"},
		{metrics.PhaseAggReduce, "reduce-ms/op"},
	} {
		b.ReportMetric(float64(after[ph.phase]-before[ph.phase])/1e6/float64(b.N), ph.unit)
	}
	b.ReportMetric(cpu.Seconds()*1e3/float64(b.N), "cpu-ms/op")
}

// processCPU is the process's user + system CPU time so far
// (getrusage), what the benchmark's cpu_ms_per_iter reads per step.
func processCPU(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
