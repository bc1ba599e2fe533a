package mllib

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"sparker/internal/linalg"
	"sparker/internal/rdd"
	"sparker/internal/serde"
)

func testContext(t *testing.T, execs, cores int) *rdd.Context {
	t.Helper()
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             fmt.Sprintf("ml-%s", t.Name()),
		NumExecutors:     execs,
		CoresPerExecutor: cores,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

func sparse(t *testing.T, dim int, idx []int32, vals []float64) linalg.SparseVector {
	t.Helper()
	v, err := linalg.NewSparse(dim, idx, vals)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLabeledPointSerdeRoundTrip(t *testing.T) {
	p := LabeledPoint{Label: 1, Features: sparse(t, 10, []int32{2, 7}, []float64{1.5, -3})}
	b, err := serde.Encode(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := serde.Decode(b)
	if err != nil || n != len(b) {
		t.Fatalf("decode: %v", err)
	}
	gp := got.(LabeledPoint)
	if gp.Label != 1 || gp.Features.At(7) != -3 {
		t.Fatalf("roundtrip: %+v", gp)
	}
}

func TestDocumentSerdeAndValidate(t *testing.T) {
	d := Document{WordIDs: []int32{0, 5, 9}, Counts: []float64{2, 1, 4}}
	if err := d.Validate(10); err != nil {
		t.Fatal(err)
	}
	if d.TokenCount() != 7 {
		t.Fatalf("TokenCount = %v", d.TokenCount())
	}
	b, err := serde.Encode(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := serde.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	gd := got.(Document)
	if gd.TokenCount() != 7 || gd.WordIDs[1] != 5 {
		t.Fatalf("roundtrip: %+v", gd)
	}
	bad := Document{WordIDs: []int32{3, 1}, Counts: []float64{1, 1}}
	if bad.Validate(10) == nil {
		t.Fatal("unsorted ids should fail validation")
	}
	bad2 := Document{WordIDs: []int32{1}, Counts: []float64{0}}
	if bad2.Validate(10) == nil {
		t.Fatal("zero count should fail validation")
	}
}

func TestLogisticGradientFiniteDifference(t *testing.T) {
	// Gradient check against numeric differentiation of the loss.
	x := sparse(t, 4, []int32{0, 2, 3}, []float64{1, -2, 0.5})
	w := []float64{0.3, -0.1, 0.2, 0.7}
	for _, label := range []float64{0, 1} {
		g := make([]float64, 4)
		LogisticGradient{}.Compute(x, label, w, g)
		const h = 1e-6
		for i := 0; i < 4; i++ {
			wp := append([]float64(nil), w...)
			wm := append([]float64(nil), w...)
			wp[i] += h
			wm[i] -= h
			lp := LogisticGradient{}.Compute(x, label, wp, make([]float64, 4))
			lm := LogisticGradient{}.Compute(x, label, wm, make([]float64, 4))
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-g[i]) > 1e-4 {
				t.Fatalf("label %v dim %d: analytic %v numeric %v", label, i, g[i], numeric)
			}
		}
	}
}

func TestHingeGradient(t *testing.T) {
	x := sparse(t, 2, []int32{0, 1}, []float64{1, 1})
	// Correctly classified with margin > 1: zero loss, zero gradient.
	w := []float64{2, 2}
	g := make([]float64, 2)
	if loss := (HingeGradient{}).Compute(x, 1, w, g); loss != 0 || g[0] != 0 {
		t.Fatalf("confident correct: loss=%v g=%v", loss, g)
	}
	// Misclassified: loss = 1 - (-1)(4) = 5 for label 0.
	g = make([]float64, 2)
	if loss := (HingeGradient{}).Compute(x, 0, w, g); math.Abs(loss-5) > 1e-12 || g[0] != 1 {
		t.Fatalf("misclassified: loss=%v g=%v", loss, g)
	}
}

func TestLeastSquaresGradient(t *testing.T) {
	x := sparse(t, 2, []int32{0}, []float64{2})
	w := []float64{3, 0}
	g := make([]float64, 2)
	loss := (LeastSquaresGradient{}).Compute(x, 1, w, g) // pred 6, diff 5
	if math.Abs(loss-12.5) > 1e-12 || math.Abs(g[0]-10) > 1e-12 {
		t.Fatalf("loss=%v g=%v", loss, g)
	}
}

func TestUpdaters(t *testing.T) {
	w := []float64{1, 1}
	g := []float64{1, -1}
	nw, reg := SimpleUpdater{}.Update(w, g, 0.5, 1, 0)
	if reg != 0 || math.Abs(nw[0]-0.5) > 1e-12 || math.Abs(nw[1]-1.5) > 1e-12 {
		t.Fatalf("SimpleUpdater: %v reg=%v", nw, reg)
	}
	// Iter 4 halves the effective step (1/sqrt(4)).
	nw, _ = SimpleUpdater{}.Update(w, g, 0.5, 4, 0)
	if math.Abs(nw[0]-0.75) > 1e-12 {
		t.Fatalf("step schedule wrong: %v", nw)
	}
	nw, reg = SquaredL2Updater{}.Update(w, g, 0.5, 1, 0.1)
	wantW0 := 1*(1-0.5*0.1) - 0.5
	if math.Abs(nw[0]-wantW0) > 1e-12 {
		t.Fatalf("SquaredL2Updater: %v", nw)
	}
	if reg <= 0 {
		t.Fatalf("reg = %v, want > 0", reg)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyTree.String() != "tree" || StrategyTreeIMM.String() != "tree+imm" || StrategySplit.String() != "split" {
		t.Fatal("Strategy strings wrong")
	}
	if Strategy(99).String() == "" {
		t.Fatal("unknown strategy should still print")
	}
}

// trainingSet builds a small separable dataset spread over the cluster.
func trainingSet(ctx *rdd.Context, n, dim, parts int) *rdd.RDD[LabeledPoint] {
	return rdd.Generate(ctx, parts, func(part int) ([]LabeledPoint, error) {
		lo := part * n / parts
		hi := (part + 1) * n / parts
		out := make([]LabeledPoint, 0, hi-lo)
		for i := lo; i < hi; i++ {
			// Two gaussian-ish blobs on a deterministic lattice.
			f0 := float64(i%17)/17 - 0.5
			f1 := float64(i%13)/13 - 0.5
			label := 0.0
			if f0+f1 > 0 {
				label = 1
			}
			idx := []int32{0, 1}
			vals := []float64{f0, f1}
			sv, err := linalg.NewSparse(dim, idx, vals)
			if err != nil {
				return nil, err
			}
			out = append(out, LabeledPoint{Label: label, Features: sv})
		}
		return out, nil
	}).Cache()
}

func TestLogisticRegressionLearnsAllStrategies(t *testing.T) {
	for _, s := range []Strategy{StrategyTree, StrategyTreeIMM, StrategySplit} {
		t.Run(s.String(), func(t *testing.T) {
			ctx := testContext(t, 3, 2)
			const n, dim = 400, 2
			train := trainingSet(ctx, n, dim, 6)
			m, err := TrainLogisticRegression(train, LogisticRegressionConfig{
				NumFeatures: dim,
				GD:          GDConfig{Iterations: 30, StepSize: 5, Strategy: s},
			})
			if err != nil {
				t.Fatal(err)
			}
			pts, err := rdd.Collect(train)
			if err != nil {
				t.Fatal(err)
			}
			if acc := m.Accuracy(pts); acc < 0.9 {
				t.Fatalf("accuracy %v < 0.9 with strategy %v", acc, s)
			}
			// Loss should broadly decrease.
			if m.Losses[len(m.Losses)-1] >= m.Losses[0] {
				t.Fatalf("loss did not improve: %v -> %v", m.Losses[0], m.Losses[len(m.Losses)-1])
			}
		})
	}
}

func TestStrategiesProduceSameModel(t *testing.T) {
	ctx := testContext(t, 3, 2)
	const n, dim = 300, 2
	train := trainingSet(ctx, n, dim, 5)
	cfgFor := func(s Strategy) LogisticRegressionConfig {
		return LogisticRegressionConfig{NumFeatures: dim, GD: GDConfig{Iterations: 10, StepSize: 2, Strategy: s}}
	}
	tree, err := TrainLogisticRegression(train, cfgFor(StrategyTree))
	if err != nil {
		t.Fatal(err)
	}
	imm, err := TrainLogisticRegression(train, cfgFor(StrategyTreeIMM))
	if err != nil {
		t.Fatal(err)
	}
	split, err := TrainLogisticRegression(train, cfgFor(StrategySplit))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tree.Weights {
		if math.Abs(tree.Weights[i]-imm.Weights[i]) > 1e-8 ||
			math.Abs(tree.Weights[i]-split.Weights[i]) > 1e-8 {
			t.Fatalf("weight %d differs across strategies: tree=%v imm=%v split=%v",
				i, tree.Weights[i], imm.Weights[i], split.Weights[i])
		}
	}
}

func TestSVMLearns(t *testing.T) {
	ctx := testContext(t, 2, 2)
	const n, dim = 400, 2
	train := trainingSet(ctx, n, dim, 4)
	m, err := TrainSVM(train, SVMConfig{
		NumFeatures: dim,
		GD:          GDConfig{Iterations: 40, StepSize: 5, Strategy: StrategySplit},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := rdd.Collect(train)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(pts); acc < 0.9 {
		t.Fatalf("SVM accuracy %v < 0.9", acc)
	}
	if m.Kind() != "svm" {
		t.Fatalf("Kind = %q", m.Kind())
	}
}

func TestMiniBatchSamplingDeterministic(t *testing.T) {
	ctx := testContext(t, 2, 1)
	train := trainingSet(ctx, 200, 2, 4)
	cfg := LogisticRegressionConfig{
		NumFeatures: 2,
		GD:          GDConfig{Iterations: 5, StepSize: 1, MiniBatchFraction: 0.5, Seed: 11},
	}
	a, err := TrainLogisticRegression(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainLogisticRegression(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("same seed should give identical mini-batch runs")
		}
	}
}

func TestConvergenceTolStopsEarly(t *testing.T) {
	ctx := testContext(t, 2, 1)
	train := trainingSet(ctx, 100, 2, 2)
	m, err := TrainLogisticRegression(train, LogisticRegressionConfig{
		NumFeatures: 2,
		GD:          GDConfig{Iterations: 100, StepSize: 0.01, ConvergenceTol: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Losses) >= 100 {
		t.Fatalf("ran all %d iterations despite loose tolerance", len(m.Losses))
	}
}

func TestGDValidation(t *testing.T) {
	ctx := testContext(t, 2, 1)
	train := trainingSet(ctx, 10, 2, 2)
	if _, err := TrainLogisticRegression(train, LogisticRegressionConfig{NumFeatures: 0}); err == nil {
		t.Fatal("zero features should fail")
	}
	if _, _, err := RunGradientDescent(train, LogisticGradient{}, SimpleUpdater{}, nil, GDConfig{}); err == nil {
		t.Fatal("empty initial weights should fail")
	}
	if _, err := AggregateF64Ctx(context.Background(), train, 4, func(a []float64, p LabeledPoint) []float64 { return a }, Strategy(42), 2, 1); err == nil {
		t.Fatal("unknown strategy should fail")
	}
}

func TestPredictThresholds(t *testing.T) {
	lr := &LinearModel{Weights: []float64{1}, Threshold: 0.5, kind: "logistic-regression"}
	x := linalg.SparseVector{Dim: 1, Indices: []int32{0}, Values: []float64{3}}
	if lr.Predict(x) != 1 {
		t.Fatal("positive margin should predict 1")
	}
	if p := lr.PredictProb(x); p < 0.9 {
		t.Fatalf("prob = %v", p)
	}
	svm := &LinearModel{Weights: []float64{-1}, Threshold: 0, kind: "svm"}
	if svm.Predict(x) != 0 {
		t.Fatal("negative margin should predict 0")
	}
}

func TestDigamma(t *testing.T) {
	// Reference values (Abramowitz & Stegun / SciPy).
	cases := []struct{ x, want float64 }{
		{1, -0.5772156649015329},
		{0.5, -1.9635100260214235},
		{2, 0.42278433509846713},
		{10, 2.251752589066721},
		{100, 4.600161852738087},
	}
	for _, c := range cases {
		if got := digamma(c.x); math.Abs(got-c.want) > 1e-10 {
			t.Errorf("digamma(%v) = %.15f, want %.15f", c.x, got, c.want)
		}
	}
	// Recurrence property ψ(x+1) = ψ(x) + 1/x.
	for _, x := range []float64{0.3, 1.7, 5.5, 42} {
		if diff := digamma(x+1) - digamma(x) - 1/x; math.Abs(diff) > 1e-10 {
			t.Errorf("recurrence violated at %v: %v", x, diff)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"tree": StrategyTree, "imm": StrategyTreeIMM, "tree+imm": StrategyTreeIMM,
		"split": StrategySplit, "allreduce": StrategyAllReduce,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("unknown strategy should fail")
	}
}

// cancelOnCompute cancels the run's context from inside the gradient of
// iteration 2's aggregation, on an executor, while that aggregation runs.
type cancelOnCompute struct {
	Gradient
	updates *atomic.Int32
	cancel  context.CancelFunc
}

func (g cancelOnCompute) Compute(x linalg.SparseVector, label float64, w, cum []float64) float64 {
	if g.updates.Load() == 1 {
		g.cancel()
	}
	return g.Gradient.Compute(x, label, w, cum)
}

// TestGDCancelStopsWithinOneIteration: cancelling GDConfig.Ctx mid-run
// ends training with an error that is context.Canceled, and no later
// than the iteration after the one it interrupted: a cancel between
// iterations 2 and 3 stops before iteration 3 aggregates, and a cancel
// during iteration 2's aggregation stops before iteration 3 updates.
func TestGDCancelStopsWithinOneIteration(t *testing.T) {
	const n, dim, nnz, iters = 400, 64, 4, 10
	ctx := testContext(t, 3, 1)
	train := rdd.FromSlice(ctx, churnPoints(t, n, dim, nnz), 6).Cache()
	for _, s := range []Strategy{StrategySplit, StrategyTree} {
		for _, during := range []bool{false, true} {
			name := fmt.Sprintf("%v/between", s)
			if during {
				name = fmt.Sprintf("%v/during", s)
			}
			t.Run(name, func(t *testing.T) {
				runCtx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var updates atomic.Int32
				var grad Gradient = LogisticGradient{}
				hook := func(iter int) {
					updates.Add(1)
					if !during && iter == 2 {
						cancel()
					}
				}
				if during {
					grad = cancelOnCompute{LogisticGradient{}, &updates, cancel}
				}
				_, _, err := RunGradientDescent(train, grad, afterUpdate{SimpleUpdater{}, hook},
					make([]float64, dim), GDConfig{Iterations: iters, Strategy: s, Ctx: runCtx})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("training returned %v, want context.Canceled", err)
				}
				if u := updates.Load(); u != 2 && !(during && u == 1) {
					t.Fatalf("%d updates ran, want 2 (1 or 2 when the cancel lands mid-aggregation)", u)
				}
			})
		}
	}
}
