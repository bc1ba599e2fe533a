package mllib_test

// Allocation budget of the split-aggregation step: the engine may
// allocate at most a small multiple of the aggregator's own size per
// training step at steady state. Everything the aggregator passes
// through — per-partition accumulators, the resident IMM aggregator,
// ring wire buffers, result frames, the driver's gathered vector — is
// either reused or touched once (DESIGN.md "Aggregator ownership and
// lifetime"), so a regression here means a copy or a fresh buffer crept
// back onto the hot path.

import (
	"runtime"
	"testing"

	"sparker/internal/data"
	"sparker/internal/mllib"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// wideStepCluster boots the wide shape of the benchmark (20 000 samples
// × 1 M features, 4 executors × 1 core, ring parallelism 4) on net and
// returns a function running one RunGradientDescent{Iterations: 1} step
// fed the previous step's weights.
func wideStepCluster(tb testing.TB, net transport.Network) (step func(), aggBytes uint64) {
	tb.Helper()
	const samples, features = 20_000, 1_000_000
	points := data.GenClassification(data.ClassificationSpec{
		Samples: samples, Features: features, NNZPerSample: 15, NNZAlpha: 1.5, Seed: 1,
	})
	ctx, err := rdd.NewContext(rdd.Config{
		Name: "wide-" + tb.Name(), NumExecutors: 4, CoresPerExecutor: 1, RingParallelism: 4, Network: net,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx.Close()
		net.Close()
	})
	train := rdd.FromSlice(ctx, points, ctx.TotalCores()).Cache()
	wts := make([]float64, features)
	cfg := mllib.GDConfig{Iterations: 1, Strategy: mllib.StrategySplit, Parallelism: 4}
	return func() {
		next, _, err := mllib.RunGradientDescent(train, mllib.LogisticGradient{}, mllib.SimpleUpdater{}, wts, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		wts = next
	}, 8 * (features + 2)
}

// TestAllocBudgetWideStep holds the steady-state step to 2× the
// aggregator's bytes: the driver's gathered vector is the one
// aggregator-sized allocation a step makes — the updater returns the
// new weights in its storage — and the rest is frames, closures and
// pool refills (at the parent of the change that introduced this test
// a step allocated ≈ 25×). Under -race the wire pool's double-park guard
// is armed, so the same run also proves the result-frame hand-off
// (executor → transport → driver waiter → pool) parks every frame once.
func TestAllocBudgetWideStep(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-feature cluster")
	}
	step, aggBytes := wideStepCluster(t, transport.NewMem())
	for i := 0; i < 3; i++ { // pack the partitions, fill the pools and free lists
		step()
	}
	const steps = 5
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
}

// BenchmarkWideStepTCP is the wide-split-tcp step loop as a profiling
// target: go test -run '^$' -bench WideStepTCP -cpuprofile … ./internal/mllib
func BenchmarkWideStepTCP(b *testing.B) {
	step, aggBytes := wideStepCluster(b, transport.NewTCP())
	for i := 0; i < 3; i++ {
		step()
	}
	b.SetBytes(int64(aggBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
