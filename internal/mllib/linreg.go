package mllib

import (
	"fmt"

	"sparker/internal/linalg"
	"sparker/internal/rdd"
)

// RegressionModel is a trained linear regressor.
type RegressionModel struct {
	// Weights is the learned weight vector.
	Weights []float64
	// Losses is the per-iteration mean squared loss history.
	Losses []float64
}

// Predict returns wᵀx.
func (m *RegressionModel) Predict(x linalg.SparseVector) float64 {
	return linalg.Dot(m.Weights, x)
}

// Kind identifies the model family for the unified Model interface.
func (m *RegressionModel) Kind() string { return "linear-regression" }

// NumFeatures returns the weight vector's dimensionality.
func (m *RegressionModel) NumFeatures() int { return len(m.Weights) }

// MSE evaluates mean squared error over data.
func (m *RegressionModel) MSE(data []LabeledPoint) float64 {
	if len(data) == 0 {
		return 0
	}
	var s float64
	for _, p := range data {
		d := m.Predict(p.Features) - p.Label
		s += d * d
	}
	return s / float64(len(data))
}

// LinearRegressionConfig configures TrainLinearRegression.
type LinearRegressionConfig struct {
	NumFeatures int
	GD          GDConfig
}

// TrainLinearRegression fits least-squares regression with mini-batch
// gradient descent — MLlib's LinearRegressionWithSGD, completing the
// gradient family beyond the paper's three workloads.
func TrainLinearRegression(data *rdd.RDD[LabeledPoint], cfg LinearRegressionConfig) (*RegressionModel, error) {
	if cfg.NumFeatures <= 0 {
		return nil, fmt.Errorf("mllib: NumFeatures must be positive")
	}
	initial := make([]float64, cfg.NumFeatures)
	var up Updater = SimpleUpdater{}
	if cfg.GD.RegParam > 0 {
		up = SquaredL2Updater{}
	}
	w, losses, err := RunGradientDescent(data, LeastSquaresGradient{}, up, initial, cfg.GD)
	if err != nil {
		return nil, err
	}
	return &RegressionModel{Weights: w, Losses: losses}, nil
}
