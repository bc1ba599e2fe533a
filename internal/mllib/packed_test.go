package mllib

// Engine-level property tests for the packed compute plane: training
// with Packed on must produce bit-for-bit the weights, losses and
// centers of the per-point path across partition counts, core counts,
// strategies and gradient families — and must degrade through the same
// ring→tree fallback under chaos.

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sparker/internal/blockmanager"
	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// sparseSet builds a deterministic labeled dataset with power-law-ish
// row sparsity over dim columns, including empty and single-entry rows
// — the degenerate shapes the kernels special-case.
func sparseSet(ctx *rdd.Context, n, dim, parts int) *rdd.RDD[LabeledPoint] {
	return rdd.Generate(ctx, parts, func(part int) ([]LabeledPoint, error) {
		lo := part * n / parts
		hi := (part + 1) * n / parts
		out := make([]LabeledPoint, 0, hi-lo)
		for i := lo; i < hi; i++ {
			// nnz cycles 0,1,2,3,5,8,13 — empty and tiny rows included.
			nnz := []int{0, 1, 2, 3, 5, 8, 13}[i%7]
			if nnz > dim {
				nnz = dim
			}
			idx := make([]int32, 0, nnz)
			vals := make([]float64, 0, nnz)
			margin := 0.0
			for j, last := 0, -1; j < nnz; j++ {
				// Leave room for the nnz-j-1 entries still to come:
				// col may reach at most dim-1-(nnz-j-1).
				span := dim - nnz + j - last
				step := 1 + (i*31+j*17)%span
				col := last + step
				last = col
				v := (float64((i*13+j*7)%101)/101 - 0.5) * float64(1+j%3)
				idx = append(idx, int32(col))
				vals = append(vals, v)
				if col%2 == 0 {
					margin += v
				} else {
					margin -= v
				}
			}
			label := 0.0
			if margin > 0 {
				label = 1
			}
			sv, err := linalg.NewSparse(dim, idx, vals)
			if err != nil {
				return nil, err
			}
			out = append(out, LabeledPoint{Label: label, Features: sv})
		}
		return out, nil
	}).Cache()
}

func bitsEqualSlices(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%#x) != %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestPackedGDBitwiseMatchesPerPoint is the gating property test for
// GDConfig.Packed: identical configs with the packed plane on and off
// must train bit-identical weights and loss histories, for every fused
// gradient family, across partition and core counts and both
// deterministic-merge strategies.
func TestPackedGDBitwiseMatchesPerPoint(t *testing.T) {
	grads := []struct {
		name string
		g    Gradient
	}{
		{"logistic", LogisticGradient{}},
		{"leastsquares", LeastSquaresGradient{}},
		{"hinge", HingeGradient{}},
	}
	layouts := []struct {
		execs, cores, parts int
		strategy            Strategy
	}{
		{1, 1, 1, StrategyTree},
		{2, 2, 4, StrategyTree},
		{3, 8, 6, StrategyTree},
		{3, 2, 6, StrategySplit},
	}
	const n, dim = 420, 48
	for _, gc := range grads {
		for _, lay := range layouts {
			t.Run(fmt.Sprintf("%s/e%dc%dp%d-%s", gc.name, lay.execs, lay.cores, lay.parts, lay.strategy), func(t *testing.T) {
				ctx := testContext(t, lay.execs, lay.cores)
				train := sparseSet(ctx, n, dim, lay.parts)
				run := func(mode PackedMode) ([]float64, []float64) {
					w, losses, err := RunGradientDescent(train, gc.g, SimpleUpdater{}, make([]float64, dim), GDConfig{
						Iterations: 4, StepSize: 1, Strategy: lay.strategy, Packed: mode,
					})
					if err != nil {
						t.Fatal(err)
					}
					return w, losses
				}
				wOff, lOff := run(PackedOff)
				wOn, lOn := run(PackedOn)
				bitsEqualSlices(t, "weights", wOn, wOff)
				bitsEqualSlices(t, "losses", lOn, lOff)
			})
		}
	}
}

// TestPackedMinibatchBitwise pins the sampling parity: in-kernel
// index sampling must select exactly the rows sampleRDD's fresh-slice
// path would, so minibatch runs stay bit-identical too.
func TestPackedMinibatchBitwise(t *testing.T) {
	ctx := testContext(t, 2, 2)
	const n, dim = 400, 32
	train := sparseSet(ctx, n, dim, 4)
	for _, frac := range []float64{0.05, 0.3, 0.9} {
		run := func(mode PackedMode) ([]float64, []float64) {
			w, losses, err := RunGradientDescent(train, LogisticGradient{}, SimpleUpdater{}, make([]float64, dim), GDConfig{
				Iterations: 5, StepSize: 1, MiniBatchFraction: frac, Seed: 42,
				Strategy: StrategyTree, Packed: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			return w, losses
		}
		wOff, lOff := run(PackedOff)
		wOn, lOn := run(PackedOn)
		bitsEqualSlices(t, fmt.Sprintf("weights@%v", frac), wOn, wOff)
		bitsEqualSlices(t, fmt.Sprintf("losses@%v", frac), lOn, lOff)
	}
}

// TestPackedLBFGSBitwise gates the L-BFGS cost path: every line-search
// probe goes through the packed kernel, and the optimizer trajectory
// must not move by a single bit.
func TestPackedLBFGSBitwise(t *testing.T) {
	ctx := testContext(t, 3, 2)
	const n, dim = 300, 24
	train := sparseSet(ctx, n, dim, 6)
	run := func(mode PackedMode) ([]float64, []float64) {
		w, losses, err := RunLBFGS(train, LogisticGradient{}, make([]float64, dim), LBFGSConfig{
			Iterations: 6, Strategy: StrategyTree, RegParam: 0.01, Packed: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w, losses
	}
	wOff, lOff := run(PackedOff)
	wOn, lOn := run(PackedOn)
	bitsEqualSlices(t, "weights", wOn, wOff)
	bitsEqualSlices(t, "losses", lOn, lOff)
}

// TestPackedKMeansBitwise gates the clustering path: packed Lloyd
// iterations (precomputed center norms, fused nearest-center kernel)
// must reproduce the per-point centers and cost history exactly.
func TestPackedKMeansBitwise(t *testing.T) {
	for _, lay := range []struct{ execs, cores, parts int }{{1, 1, 1}, {3, 2, 6}} {
		t.Run(fmt.Sprintf("e%dc%dp%d", lay.execs, lay.cores, lay.parts), func(t *testing.T) {
			ctx := testContext(t, lay.execs, lay.cores)
			const n, dim, k = 240, 6, 3
			pts := blobRDD(ctx, n, dim, k, lay.parts)
			run := func(mode PackedMode) *KMeansModel {
				m, err := TrainKMeans(pts, KMeansConfig{
					K: k, NumFeatures: dim, Iterations: 8, Strategy: StrategyTree, Packed: mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			off := run(PackedOff)
			on := run(PackedOn)
			bitsEqualSlices(t, "cost", on.CostHistory, off.CostHistory)
			for c := range off.Centers {
				bitsEqualSlices(t, fmt.Sprintf("center%d", c), on.Centers[c], off.Centers[c])
			}
		})
	}
}

// customGradient has no fused kernel — PackedAuto must fall back to
// the per-point fold, PackedOn must fail fast.
type customGradient struct{}

func (customGradient) Compute(x linalg.SparseVector, label float64, w, cum []float64) float64 {
	diff := linalg.Dot(w, x) - label
	linalg.Axpy(diff, x, cum)
	return diff * diff
}

func TestPackedOnRequiresKernel(t *testing.T) {
	ctx := testContext(t, 2, 1)
	train := sparseSet(ctx, 100, 16, 2)
	_, _, err := RunGradientDescent(train, customGradient{}, SimpleUpdater{}, make([]float64, 16), GDConfig{
		Iterations: 1, Strategy: StrategyTree, Packed: PackedOn,
	})
	if err == nil || !strings.Contains(err.Error(), "no fused kernel") {
		t.Fatalf("PackedOn with custom gradient: err = %v, want fused-kernel error", err)
	}
	// PackedAuto silently uses the per-point path.
	if _, _, err := RunGradientDescent(train, customGradient{}, SimpleUpdater{}, make([]float64, 16), GDConfig{
		Iterations: 1, Strategy: StrategyTree,
	}); err != nil {
		t.Fatalf("PackedAuto with custom gradient should fall back: %v", err)
	}
}

// TestPackedBlocksPersistAcrossRuns checks the durable pack cache: the
// first run writes one csr/ block per partition into the executors'
// stores; a second run over the same data reuses them (no growth) and
// trains identical weights.
func TestPackedBlocksPersistAcrossRuns(t *testing.T) {
	ctx := testContext(t, 2, 2)
	const n, dim, parts = 200, 16, 4
	train := sparseSet(ctx, n, dim, parts)
	countCSRBlocks := func() int {
		total := 0
		res, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			c := 0
			for _, b := range ec.Store.List() {
				if strings.HasPrefix(b.ID, "csr/") {
					c++
				}
			}
			return []byte{byte(c)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			total += int(r[0])
		}
		return total
	}
	run := func() []float64 {
		w, _, err := RunGradientDescent(train, LogisticGradient{}, SimpleUpdater{}, make([]float64, dim), GDConfig{
			Iterations: 3, Strategy: StrategyTree, Packed: PackedOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w1 := run()
	if got := countCSRBlocks(); got != parts {
		t.Fatalf("after run 1: %d csr blocks, want %d", got, parts)
	}
	// Packed passes must land in the compute instruments the debug
	// plane serves.
	if n := ctx.MergedMetrics().Histogram(metrics.HistComputeMapNS).Count(); n == 0 {
		t.Fatal("packed training observed no compute.map.ns samples")
	}
	w2 := run()
	if got := countCSRBlocks(); got != parts {
		t.Fatalf("after run 2: %d csr blocks, want %d (reuse, not repack)", got, parts)
	}
	bitsEqualSlices(t, "weights", w2, w1)
}

// TestPackedStoreHitValidates: a stored block that decodes structurally
// but holds an index no Dim-sized vector can take (the decoder checks
// offsets only) must be repacked, not handed to the kernels.
func TestPackedStoreHitValidates(t *testing.T) {
	net := transport.NewMem()
	defer net.Close()
	st, err := blockmanager.NewStore(net, "validate")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ec := &rdd.ExecContext{Store: st, Cores: 1}
	good, err := PackPoints(0, 8, []LabeledPoint{{Label: 1, Features: linalg.SparseVector{Dim: 8, Indices: []int32{2, 7}, Values: []float64{1, 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	bad := &linalg.CSRMatrix{Dim: 8, RowOffsets: good.RowOffsets, Indices: []int32{2, 8}, Values: good.Values, Labels: good.Labels}
	const key = "csr/test/8/0"
	st.PutLocal(key, linalg.AppendCSR(nil, bad))
	packs := 0
	pack := func() (*linalg.CSRMatrix, error) { packs++; return good, nil }
	for run := 1; run <= 2; run++ {
		parts, err := materializePacked(ec, key, pack)
		if err != nil {
			t.Fatal(err)
		}
		if err := parts[0].M.Validate(); err != nil {
			t.Fatalf("run %d: materialized an invalid matrix: %v", run, err)
		}
	}
	if packs != 1 {
		t.Fatalf("packed %d times, want 1 (corrupt block repacked once, then reused)", packs)
	}
}

// TestChaosPackedTrainingRingFallback runs packed training over a
// transport that kills one executor's ring links: every iteration's
// split aggregation must degrade to the IMM tree fallback and the run
// must still finish — with exactly the weights the per-point path
// trains under the same faults, because the packed plane changes only
// the map-side fold, never the reduction.
func TestChaosPackedTrainingRingFallback(t *testing.T) {
	const n, dim, iters = 300, 24, 3
	run := func(name string, mode PackedMode) ([]float64, *rdd.Context) {
		victim := transport.Addr(fmt.Sprintf("comm/%s/ring/%d", name, 1))
		net := transport.NewFaulty(transport.NewMem(), 7, &transport.FaultRule{
			Match:     func(a transport.Addr) bool { return a == victim },
			Kind:      transport.FaultKill,
			AfterMsgs: 1,
		})
		ctx, err := rdd.NewContext(rdd.Config{
			Name:             name,
			NumExecutors:     3,
			CoresPerExecutor: 2,
			RingParallelism:  2,
			Network:          net,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctx.Close() })
		train := sparseSet(ctx, n, dim, 6)
		w, _, err := RunGradientDescent(train, LogisticGradient{}, SimpleUpdater{}, make([]float64, dim), GDConfig{
			Iterations: iters, StepSize: 1, Strategy: StrategySplit,
			StepDeadline: 500 * time.Millisecond, Packed: mode,
		})
		if err != nil {
			t.Fatalf("%s: fallback should mask the ring kill: %v", name, err)
		}
		return w, ctx
	}
	wPacked, ctxPacked := run("chaos-packed", PackedOn)
	if c := ctxPacked.Metrics().Count(metrics.CounterRingFallback); c == 0 {
		t.Fatal("packed run recorded no ring fallback — fault never fired")
	}
	wPoint, _ := run("chaos-perpoint", PackedOff)
	bitsEqualSlices(t, "weights", wPacked, wPoint)
}
