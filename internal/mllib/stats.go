package mllib

import (
	"context"
	"fmt"
	"math"

	"sparker/internal/rdd"
)

// ColumnSummary holds per-feature statistics of a dataset — MLlib's
// MultivariateStatisticalSummary, which MLlib itself computes with one
// treeAggregate over the data (another instance of the aggregation the
// paper profiles: the aggregator is 3×features + 1 doubles).
type ColumnSummary struct {
	// Count is the number of samples.
	Count int64
	// Mean, Variance and NumNonzeros are per-feature.
	Mean, Variance []float64
	NumNonzeros    []float64
}

// ColumnStats computes per-feature mean, (population) variance and
// non-zero counts with a single distributed aggregation under the
// chosen strategy.
func ColumnStats(data *rdd.RDD[LabeledPoint], numFeatures int, strategy Strategy, parallelism int) (*ColumnSummary, error) {
	if numFeatures <= 0 {
		return nil, fmt.Errorf("mllib: numFeatures must be positive")
	}
	// Aggregator layout: [0,d) sum, [d,2d) sum of squares, [2d,3d) nnz,
	// [3d] count.
	d := numFeatures
	agg, err := AggregateF64Ctx(context.Background(), data, 3*d+1, func(acc []float64, p LabeledPoint) []float64 {
		for i, ix := range p.Features.Indices {
			v := p.Features.Values[i]
			acc[ix] += v
			acc[d+int(ix)] += v * v
			if v != 0 {
				acc[2*d+int(ix)]++
			}
		}
		acc[3*d]++
		return acc
	}, strategy, 2, parallelism)
	if err != nil {
		return nil, err
	}
	n := agg[3*d]
	if n == 0 {
		return nil, fmt.Errorf("mllib: empty dataset")
	}
	out := &ColumnSummary{
		Count:       int64(n),
		Mean:        make([]float64, d),
		Variance:    make([]float64, d),
		NumNonzeros: make([]float64, d),
	}
	for j := 0; j < d; j++ {
		mean := agg[j] / n
		out.Mean[j] = mean
		v := agg[d+j]/n - mean*mean
		if v < 0 {
			v = 0 // float cancellation guard
		}
		out.Variance[j] = v
		out.NumNonzeros[j] = agg[2*d+j]
	}
	return out, nil
}

// StandardScaler centers and scales features using a ColumnSummary —
// the preprocessing step MLlib pipelines put before linear models.
type StandardScaler struct {
	mean, scale []float64
}

// NewStandardScaler builds a scaler from a summary. Zero-variance
// features are left unscaled.
func NewStandardScaler(s *ColumnSummary) *StandardScaler {
	scale := make([]float64, len(s.Variance))
	for i, v := range s.Variance {
		if v > 0 {
			scale[i] = 1 / math.Sqrt(v)
		} else {
			scale[i] = 1
		}
	}
	return &StandardScaler{mean: append([]float64(nil), s.Mean...), scale: scale}
}

// TransformDense standardizes a dense vector in place and returns it.
// (Sparse inputs densify under centering, so the dense form is the
// natural output — same trade MLlib documents.)
func (sc *StandardScaler) TransformDense(x []float64) []float64 {
	for i := range x {
		x[i] = (x[i] - sc.mean[i]) * sc.scale[i]
	}
	return x
}
