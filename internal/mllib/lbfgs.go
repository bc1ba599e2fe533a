package mllib

import (
	"context"
	"fmt"
	"math"

	"sparker/internal/core"
	"sparker/internal/linalg"
	"sparker/internal/rdd"
)

// LBFGSConfig configures RunLBFGS. MLlib's LogisticRegression actually
// optimizes with L-BFGS (each cost evaluation is one treeAggregate over
// the data — the very aggregation the paper profiles); this completes
// the optimizer family alongside mini-batch SGD.
type LBFGSConfig struct {
	// Iterations caps outer L-BFGS iterations (default 50).
	Iterations int
	// HistorySize is the number of (s, y) correction pairs (default 10).
	HistorySize int
	// RegParam is the L2 regularization strength.
	RegParam float64
	// ConvergenceTol stops on relative loss improvement (default 1e-6).
	ConvergenceTol float64
	// MaxLineSearch caps backtracking probes per iteration (default 10).
	MaxLineSearch int
	// Strategy, Depth, Parallelism select the aggregation path.
	Strategy    Strategy
	Depth       int
	Parallelism int
	// Packed selects the CSR compute plane (default PackedAuto; see
	// GDConfig.Packed). Line-search probes reuse the same packed
	// partitions, so every cost evaluation skips the per-point fold.
	Packed PackedMode
}

// fill sets c's defaults and returns its aggregation options.
func (c *LBFGSConfig) fill() ([]core.AggOption, error) {
	if c.Iterations == 0 {
		c.Iterations = 50
	}
	if c.HistorySize == 0 {
		c.HistorySize = 10
	}
	if c.ConvergenceTol == 0 {
		c.ConvergenceTol = 1e-6
	}
	if c.MaxLineSearch == 0 {
		c.MaxLineSearch = 10
	}
	return c.Strategy.Options(c.Depth, c.Parallelism)
}

// RunLBFGS minimizes the regularized empirical loss with limited-memory
// BFGS, evaluating cost and gradient with one distributed aggregation
// per probe. Returns the weights and the per-iteration loss history.
func RunLBFGS(data *rdd.RDD[LabeledPoint], grad Gradient, initial []float64, cfg LBFGSConfig) (finalW []float64, lossHist []float64, retErr error) {
	opts, err := cfg.fill()
	if err != nil {
		return nil, nil, err
	}
	dim := len(initial)
	if dim == 0 {
		return nil, nil, fmt.Errorf("mllib: empty initial weights")
	}

	tr, root, tctx := startTrainSpan(data.Context(), "lbfgs", cfg.Strategy, nil)
	defer func() { root.EndErr(retErr) }()

	var plan *packedPlan
	var kind linalg.CSRGradKind
	if k, ok := packedKind(grad); ok && cfg.Packed != PackedOff {
		kind = k
		plan = newPackedPlan(data, dim)
		defer plan.release()
	} else if cfg.Packed == PackedOn {
		return nil, nil, fmt.Errorf("mllib: Packed=on but %T has no fused kernel", grad)
	}
	root.SetAttr("packed", fmt.Sprint(plan != nil))

	// costAt evaluates (loss, gradient) at w with one aggregation,
	// parented under the caller's span (line-search probes share their
	// iteration's span).
	costAt := func(ictx context.Context, w []float64) (float64, []float64, error) {
		snapshot := append([]float64(nil), w...)
		var agg []float64
		var err error
		if plan != nil {
			g := packedGrad{kind: kind, w: snapshot, dim: dim, frac: 1}
			agg, err = core.AggregateF64(ictx, plan.packed, g.funcs(nil), opts...)
		} else {
			agg, err = core.AggregateF64(ictx, data, core.F64Funcs[LabeledPoint]{Dim: dim + 2, SeqOp: func(acc []float64, p LabeledPoint) []float64 {
				loss := grad.Compute(p.Features, p.Label, snapshot, acc[:dim])
				acc[dim] += loss
				acc[dim+1]++
				return acc
			}}, opts...)
		}
		if err != nil {
			return 0, nil, err
		}
		n := agg[dim+1]
		if n == 0 {
			return 0, nil, fmt.Errorf("mllib: empty dataset")
		}
		g := make([]float64, dim)
		for i := range g {
			g[i] = agg[i]/n + cfg.RegParam*w[i]
		}
		norm := linalg.Norm2(w)
		loss := agg[dim]/n + 0.5*cfg.RegParam*norm*norm
		return loss, g, nil
	}

	w := append([]float64(nil), initial...)
	loss, g, err := costAt(tctx, w)
	if err != nil {
		return nil, nil, err
	}
	losses := []float64{loss}

	var sHist, yHist [][]float64
	var rhoHist []float64

	for iter := 0; iter < cfg.Iterations; iter++ {
		it, ictx := startIteration(tr, root, tctx, iter+1)
		dir := twoLoop(g, sHist, yHist, rhoHist)
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Backtracking Armijo line search.
		step := 1.0
		if len(sHist) == 0 {
			step = 1.0 / (1.0 + linalg.Norm2(g)) // cautious first step
		}
		gd := linalg.DotDense(g, dir)
		if gd >= 0 {
			// Not a descent direction (numerical trouble): restart from
			// steepest descent.
			sHist, yHist, rhoHist = nil, nil, nil
			copy(dir, g)
			for i := range dir {
				dir[i] = -dir[i]
			}
			gd = linalg.DotDense(g, dir)
		}
		var newW []float64
		var newLoss float64
		var newG []float64
		ok := false
		for probe := 0; probe < cfg.MaxLineSearch; probe++ {
			cand := make([]float64, dim)
			for i := range cand {
				cand[i] = w[i] + step*dir[i]
			}
			l, gg, err := costAt(ictx, cand)
			if err != nil {
				it.EndErr(err)
				return nil, nil, err
			}
			if l <= loss+1e-4*step*gd {
				newW, newLoss, newG, ok = cand, l, gg, true
				break
			}
			step /= 2
		}
		if !ok {
			it.End()
			break // line search failed: converged as far as we can go
		}

		// Update history.
		s := make([]float64, dim)
		y := make([]float64, dim)
		for i := range s {
			s[i] = newW[i] - w[i]
			y[i] = newG[i] - g[i]
		}
		sy := linalg.DotDense(s, y)
		if sy > 1e-12 {
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rhoHist = append(rhoHist, 1/sy)
			if len(sHist) > cfg.HistorySize {
				sHist, yHist, rhoHist = sHist[1:], yHist[1:], rhoHist[1:]
			}
		}
		improvement := (loss - newLoss) / math.Max(math.Abs(loss), 1)
		w, loss, g = newW, newLoss, newG
		losses = append(losses, loss)
		it.End()
		if improvement < cfg.ConvergenceTol {
			break
		}
	}
	return w, losses, nil
}

// twoLoop applies the L-BFGS two-loop recursion: returns H·g where H
// approximates the inverse Hessian from the correction history.
func twoLoop(g []float64, sHist, yHist [][]float64, rho []float64) []float64 {
	q := append([]float64(nil), g...)
	k := len(sHist)
	alpha := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		alpha[i] = rho[i] * linalg.DotDense(sHist[i], q)
		linalg.AxpyDense(-alpha[i], yHist[i], q)
	}
	if k > 0 {
		// Initial Hessian scaling γ = sᵀy / yᵀy.
		yy := linalg.DotDense(yHist[k-1], yHist[k-1])
		if yy > 0 {
			linalg.Scal(linalg.DotDense(sHist[k-1], yHist[k-1])/yy, q)
		}
	}
	for i := 0; i < k; i++ {
		beta := rho[i] * linalg.DotDense(yHist[i], q)
		linalg.AxpyDense(alpha[i]-beta, sHist[i], q)
	}
	return q
}

// TrainLogisticRegressionLBFGS trains binary LR with L-BFGS — MLlib's
// default LR path.
func TrainLogisticRegressionLBFGS(data *rdd.RDD[LabeledPoint], numFeatures int, cfg LBFGSConfig) (*LinearModel, error) {
	if numFeatures <= 0 {
		return nil, fmt.Errorf("mllib: NumFeatures must be positive")
	}
	initial := make([]float64, numFeatures)
	w, losses, err := RunLBFGS(data, LogisticGradient{}, initial, cfg)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Weights: w, Losses: losses, Threshold: 0.5, kind: "logistic-regression"}, nil
}
