package mllib

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"sparker/internal/linalg"
	"sparker/internal/rdd"
)

func TestLinearModelSaveLoad(t *testing.T) {
	m := &LinearModel{
		Weights:   []float64{1.5, -2.5, 0, math.Pi},
		Losses:    []float64{0.9, 0.5, 0.3},
		Threshold: 0.5,
		kind:      "logistic-regression",
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.(*LinearModel)
	if !reflect.DeepEqual(got.Weights, m.Weights) ||
		!reflect.DeepEqual(got.Losses, m.Losses) ||
		got.Threshold != m.Threshold || got.Kind() != m.Kind() {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	// The loaded model predicts identically.
	x, _ := linalg.NewSparse(4, []int32{0, 3}, []float64{1, 1})
	if got.Predict(x) != m.Predict(x) {
		t.Fatal("loaded model predicts differently")
	}
}

func TestLDAModelSaveLoad(t *testing.T) {
	m := &LDAModel{
		K:     2,
		Vocab: 3,
		Lambda: [][]float64{
			{1, 2, 3},
			{4, 5, 6},
		},
		Bounds: []float64{-3, -2.5},
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLDAModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 2 || got.Vocab != 3 || !reflect.DeepEqual(got.Lambda, m.Lambda) || !reflect.DeepEqual(got.Bounds, m.Bounds) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := LoadLDAModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
	// Kind confusion: an LDA file is not a linear model.
	lda := &LDAModel{K: 1, Vocab: 1, Lambda: [][]float64{{1}}}
	var buf bytes.Buffer
	if err := lda.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Fatal("kind mismatch should fail")
	}
	// Truncated file.
	var buf2 bytes.Buffer
	m := &LinearModel{Weights: []float64{1, 2, 3}, kind: "svm"}
	if err := m.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	trunc := buf2.Bytes()[:buf2.Len()-5]
	if _, err := LoadModel(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated file should fail")
	}
}

func TestLinearRegressionLearns(t *testing.T) {
	ctx := testContext(t, 2, 2)
	// Target: y = 2*x0 - x1.
	train := regressionSet(ctx, 300, 2)
	m, err := TrainLinearRegression(train, LinearRegressionConfig{
		NumFeatures: 2,
		GD:          GDConfig{Iterations: 150, StepSize: 8, Strategy: StrategySplit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Weights[0]-2) > 0.2 || math.Abs(m.Weights[1]+1) > 0.2 {
		t.Fatalf("weights %v, want ≈ [2, -1]", m.Weights)
	}
	if m.Losses[len(m.Losses)-1] >= m.Losses[0] {
		t.Fatal("loss did not decrease")
	}
	if _, err := TrainLinearRegression(train, LinearRegressionConfig{NumFeatures: 0}); err == nil {
		t.Fatal("zero features should fail")
	}
}

func TestAllReduceStrategyTrains(t *testing.T) {
	ctx := testContext(t, 3, 2)
	train := trainingSet(ctx, 300, 2, 6)
	split, err := TrainLogisticRegression(train, LogisticRegressionConfig{
		NumFeatures: 2,
		GD:          GDConfig{Iterations: 10, StepSize: 2, Strategy: StrategySplit},
	})
	if err != nil {
		t.Fatal(err)
	}
	allred, err := TrainLogisticRegression(train, LogisticRegressionConfig{
		NumFeatures: 2,
		GD:          GDConfig{Iterations: 10, StepSize: 2, Strategy: StrategyAllReduce},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range split.Weights {
		if math.Abs(split.Weights[i]-allred.Weights[i]) > 1e-8 {
			t.Fatalf("allreduce strategy diverges from split at weight %d", i)
		}
	}
	if StrategyAllReduce.String() != "allreduce" {
		t.Fatal("strategy name wrong")
	}
}

// regressionSet builds y = 2*x0 - x1 samples on a lattice.
func regressionSet(ctx *rdd.Context, n, dim int) *rdd.RDD[LabeledPoint] {
	return rdd.Generate(ctx, 4, func(part int) ([]LabeledPoint, error) {
		lo := part * n / 4
		hi := (part + 1) * n / 4
		out := make([]LabeledPoint, 0, hi-lo)
		for i := lo; i < hi; i++ {
			x0 := float64(i%11)/11 - 0.5
			x1 := float64(i%7)/7 - 0.5
			sv, err := linalg.NewSparse(dim, []int32{0, 1}, []float64{x0, x1})
			if err != nil {
				return nil, err
			}
			out = append(out, LabeledPoint{Label: 2*x0 - x1, Features: sv})
		}
		return out, nil
	}).Cache()
}
