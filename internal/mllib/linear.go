package mllib

import (
	"fmt"
	"math"

	"sparker/internal/linalg"
	"sparker/internal/rdd"
)

// LinearModel is a trained linear classifier.
type LinearModel struct {
	// Weights is the learned weight vector.
	Weights []float64
	// Losses is the per-iteration training loss history.
	Losses []float64
	// Threshold is the decision boundary on the margin (0 for SVM) or
	// probability (0.5 for LR).
	Threshold float64
	kind      string
}

// Kind reports the model family ("logistic-regression" or "svm").
func (m *LinearModel) Kind() string { return m.kind }

// NumFeatures returns the weight vector's dimensionality — part of the
// unified Model interface.
func (m *LinearModel) NumFeatures() int { return len(m.Weights) }

// Margin returns wᵀx.
//
// Model-family specific: interface-generic callers should use Predict
// via the unified Model interface; Margin only means something for
// linear families.
func (m *LinearModel) Margin(x linalg.SparseVector) float64 {
	return linalg.Dot(m.Weights, x)
}

// PredictProb returns P(label=1|x) for logistic models.
//
// Model-family specific, like Margin: prefer the unified Model
// interface for dispatching over heterogeneous models.
func (m *LinearModel) PredictProb(x linalg.SparseVector) float64 {
	return 1.0 / (1.0 + math.Exp(-m.Margin(x)))
}

// Predict returns the 0/1 class.
func (m *LinearModel) Predict(x linalg.SparseVector) float64 {
	switch m.kind {
	case "svm":
		if m.Margin(x) >= m.Threshold {
			return 1
		}
		return 0
	default:
		if m.PredictProb(x) >= m.Threshold {
			return 1
		}
		return 0
	}
}

// Accuracy evaluates the model on data.
func (m *LinearModel) Accuracy(data []LabeledPoint) float64 {
	if len(data) == 0 {
		return 0
	}
	correct := 0
	for _, p := range data {
		if m.Predict(p.Features) == p.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

// LogisticRegressionConfig configures TrainLogisticRegression. The
// paper's Table 3 setting is regParam=0, elasticNetParam=0 — plain
// unregularized logistic loss.
type LogisticRegressionConfig struct {
	NumFeatures int
	GD          GDConfig
}

// TrainLogisticRegression trains binary LR with mini-batch gradient
// descent over the chosen aggregation strategy.
func TrainLogisticRegression(data *rdd.RDD[LabeledPoint], cfg LogisticRegressionConfig) (*LinearModel, error) {
	if cfg.NumFeatures <= 0 {
		return nil, fmt.Errorf("mllib: NumFeatures must be positive")
	}
	initial := make([]float64, cfg.NumFeatures)
	w, losses, err := RunGradientDescent(data, LogisticGradient{}, SimpleUpdater{}, initial, cfg.GD)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Weights: w, Losses: losses, Threshold: 0.5, kind: "logistic-regression"}, nil
}

// SVMConfig configures TrainSVM. The paper's Table 3 setting is
// miniBatchFraction=1.0, regParam=0.01.
type SVMConfig struct {
	NumFeatures int
	GD          GDConfig
}

// TrainSVM trains a linear SVM (hinge loss, L2 regularization).
func TrainSVM(data *rdd.RDD[LabeledPoint], cfg SVMConfig) (*LinearModel, error) {
	if cfg.NumFeatures <= 0 {
		return nil, fmt.Errorf("mllib: NumFeatures must be positive")
	}
	if cfg.GD.RegParam == 0 {
		cfg.GD.RegParam = 0.01
	}
	initial := make([]float64, cfg.NumFeatures)
	w, losses, err := RunGradientDescent(data, HingeGradient{}, SquaredL2Updater{}, initial, cfg.GD)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Weights: w, Losses: losses, Threshold: 0, kind: "svm"}, nil
}
