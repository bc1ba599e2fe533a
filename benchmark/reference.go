package main

import (
	"fmt"
	"math"

	"sparker/internal/mllib"
)

// lossTolerance is the largest relative difference between the engine's
// loss and the reference's at any iteration. The engine sums partitions
// and ring segments in another order than the plain loop below, so the
// two agree to rounding, not to the bit.
const lossTolerance = 1e-9

// referenceLosses is the benchmark's own sequential logistic-regression
// trainer: one plain loop per iteration over every point for the
// gradient sum and the loss, then w -= g/n · 1/sqrt(t). It shares no
// code with the engine.
func referenceLosses(points []mllib.LabeledPoint, features, iterations int) []float64 {
	w := make([]float64, features)
	grad := make([]float64, features)
	losses := make([]float64, iterations)
	n := float64(len(points))
	for t := 1; t <= iterations; t++ {
		clear(grad)
		var lossSum float64
		for _, p := range points {
			idx, val := p.Features.Indices, p.Features.Values
			var dot float64
			for k, j := range idx {
				dot += w[j] * val[k]
			}
			// log(1+exp(-dot)) without overflow.
			var l float64
			if dot > 0 {
				l = math.Log1p(math.Exp(-dot))
			} else {
				l = -dot + math.Log1p(math.Exp(dot))
			}
			if p.Label > 0 {
				lossSum += l
			} else {
				lossSum += l + dot
			}
			m := 1/(1+math.Exp(-dot)) - p.Label
			for k, j := range idx {
				grad[j] += m * val[k]
			}
		}
		losses[t-1] = lossSum / n
		step := 1 / math.Sqrt(float64(t)) / n
		for j := range w {
			w[j] -= step * grad[j]
		}
	}
	return losses
}

// lossRelErr returns the largest relative difference between two loss
// histories; a length mismatch or a non-finite loss gives the largest
// float, which JSON can still carry.
func lossRelErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.MaxFloat64
	}
	var worst float64
	for i := range want {
		d := math.Abs(got[i]-want[i]) / math.Max(math.Abs(want[i]), math.SmallestNonzeroFloat64)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return math.MaxFloat64
		}
		worst = math.Max(worst, d)
	}
	return worst
}

// checkLosses is the correctness check of a full run.
func checkLosses(got, want []float64) (relErr float64, err error) {
	relErr = lossRelErr(got, want)
	if relErr > lossTolerance {
		return relErr, fmt.Errorf("loss history differs from the sequential reference by %.3g relative (limit %.0g)", relErr, lossTolerance)
	}
	return relErr, nil
}
