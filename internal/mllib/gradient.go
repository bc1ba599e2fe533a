package mllib

import (
	"math"

	"sparker/internal/linalg"
)

// Gradient computes per-sample loss gradients, MLlib style: the sample
// gradient is accumulated into cumGradient and the sample loss
// returned.
type Gradient interface {
	Compute(features linalg.SparseVector, label float64, weights []float64, cumGradient []float64) float64
}

// LogisticGradient is the binary logistic loss (labels in {0, 1}).
type LogisticGradient struct{}

// Compute implements Gradient.
func (LogisticGradient) Compute(x linalg.SparseVector, label float64, w, cum []float64) float64 {
	margin := -linalg.Dot(w, x)
	multiplier := 1.0/(1.0+math.Exp(margin)) - label
	linalg.Axpy(multiplier, x, cum)
	if label > 0 {
		return log1pExp(margin)
	}
	return log1pExp(margin) - margin
}

// log1pExp computes log(1 + exp(m)) stably. It delegates to the
// linalg copy so the fused CSR kernels and this scalar path share one
// definition and therefore identical bits.
func log1pExp(m float64) float64 { return linalg.Log1pExp(m) }

// HingeGradient is the SVM hinge loss (labels in {0, 1}, internally
// rescaled to {-1, +1} as MLlib does).
type HingeGradient struct{}

// Compute implements Gradient.
func (HingeGradient) Compute(x linalg.SparseVector, label float64, w, cum []float64) float64 {
	scaled := 2*label - 1
	dot := linalg.Dot(w, x)
	if 1-scaled*dot > 0 {
		linalg.Axpy(-scaled, x, cum)
		return 1 - scaled*dot
	}
	return 0
}

// LeastSquaresGradient is the squared loss — not in the paper's
// workload set but part of MLlib's gradient family; RunGradientDescent
// with it fits a least-squares regression.
type LeastSquaresGradient struct{}

// Compute implements Gradient.
func (LeastSquaresGradient) Compute(x linalg.SparseVector, label float64, w, cum []float64) float64 {
	diff := linalg.Dot(w, x) - label
	linalg.Axpy(diff, x, cum)
	return diff * diff / 2
}

// Updater applies one aggregated gradient step, returning the new
// weights and the regularization value for the loss report.
type Updater interface {
	Update(weights, gradient []float64, stepSize float64, iter int, regParam float64) ([]float64, float64)
}

// SimpleUpdater is plain SGD with a 1/sqrt(t) schedule and no
// regularization (the paper's LR setting: regParam=0).
type SimpleUpdater struct{}

// Update implements Updater.
func (SimpleUpdater) Update(w, g []float64, stepSize float64, iter int, _ float64) ([]float64, float64) {
	step := stepSize / math.Sqrt(float64(iter))
	out := make([]float64, len(w))
	copy(out, w)
	linalg.AxpyDense(-step, g, out)
	return out, 0
}

// meanUpdater is implemented by the updaters whose step is elementwise
// decay·w − step·(gradSum/count): RunGradientDescent then computes the
// new weights straight from the aggregate's frames (meanStep), with the
// bits of Update on the divided gradient.
type meanUpdater interface {
	// meanStep is iteration iter's decay and step.
	meanStep(stepSize float64, iter int, regParam float64) (decay, step float64)
	// regVal is the regularization value of the new weights w.
	regVal(w []float64, regParam float64) float64
}

func (SimpleUpdater) meanStep(stepSize float64, iter int, _ float64) (float64, float64) {
	// decay 1 multiplies exactly.
	return 1, stepSize / math.Sqrt(float64(iter))
}

func (SimpleUpdater) regVal([]float64, float64) float64 { return 0 }

// SquaredL2Updater adds L2 regularization via weight decay (the
// paper's SVM setting: regParam=0.01).
type SquaredL2Updater struct{}

func (SquaredL2Updater) meanStep(stepSize float64, iter int, regParam float64) (float64, float64) {
	step := stepSize / math.Sqrt(float64(iter))
	return 1 - step*regParam, step
}

func (SquaredL2Updater) regVal(w []float64, regParam float64) float64 {
	norm := linalg.Norm2(w)
	return 0.5 * regParam * norm * norm
}

// Update implements Updater.
func (SquaredL2Updater) Update(w, g []float64, stepSize float64, iter int, regParam float64) ([]float64, float64) {
	step := stepSize / math.Sqrt(float64(iter))
	out := make([]float64, len(w))
	for i := range w {
		out[i] = w[i] * (1 - step*regParam)
	}
	linalg.AxpyDense(-step, g, out)
	norm := linalg.Norm2(out)
	return out, 0.5 * regParam * norm * norm
}
