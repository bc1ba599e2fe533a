package mllib

import (
	"context"
	"fmt"
	"math"

	"sparker/internal/core"
	"sparker/internal/linalg"
	"sparker/internal/rdd"
)

// KMeansConfig configures TrainKMeans.
type KMeansConfig struct {
	// K is the cluster count.
	K int
	// NumFeatures is the point dimensionality.
	NumFeatures int
	// Iterations caps Lloyd iterations (default 20).
	Iterations int
	// ConvergenceTol stops when no center moves more than this L2
	// distance (default 1e-4).
	ConvergenceTol float64
	// Strategy, Depth, Parallelism select the aggregation path — the
	// per-iteration aggregator is K×dim sums + K counts + cost, another
	// big flat vector that split aggregation slices.
	Strategy    Strategy
	Depth       int
	Parallelism int
	// Ctx, when non-nil, bounds the run: each Lloyd iteration checks
	// it and the per-iteration aggregations derive from it, so
	// cancelling Ctx aborts training promptly with context.Canceled.
	Ctx context.Context
	// Packed selects the CSR compute plane (default PackedAuto, which
	// is always packed for KMeans — the nearest-center kernel covers
	// every configuration). See GDConfig.Packed.
	Packed PackedMode
}

// fill validates c, sets its defaults and returns its aggregation options.
func (c *KMeansConfig) fill() ([]core.AggOption, error) {
	if c.K < 1 || c.NumFeatures < 1 {
		return nil, fmt.Errorf("mllib: KMeans needs positive K and NumFeatures (got %d, %d)", c.K, c.NumFeatures)
	}
	if c.Iterations == 0 {
		c.Iterations = 20
	}
	if c.ConvergenceTol == 0 {
		c.ConvergenceTol = 1e-4
	}
	return c.Strategy.Options(c.Depth, c.Parallelism)
}

// KMeansModel is a trained clustering.
type KMeansModel struct {
	// Centers are the K cluster centers.
	Centers [][]float64
	// CostHistory is the per-iteration within-cluster sum of squares.
	CostHistory []float64
}

// NearestCenter returns the nearest center's index.
func (m *KMeansModel) NearestCenter(x linalg.SparseVector) int {
	best, bestDist := 0, math.Inf(1)
	for c, center := range m.Centers {
		d := sqDist(center, x)
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// Predict returns the nearest center's index as a float64, satisfying
// the unified Model interface (cluster id as float64). Callers that
// want the index as an int use NearestCenter.
func (m *KMeansModel) Predict(x linalg.SparseVector) float64 {
	return float64(m.NearestCenter(x))
}

// Kind identifies the model type for the unified Model interface.
func (m *KMeansModel) Kind() string { return "kmeans" }

// NumFeatures returns the point dimensionality the model expects.
func (m *KMeansModel) NumFeatures() int {
	if len(m.Centers) == 0 {
		return 0
	}
	return len(m.Centers[0])
}

// Cost returns the final training cost.
func (m *KMeansModel) Cost() float64 {
	if len(m.CostHistory) == 0 {
		return math.NaN()
	}
	return m.CostHistory[len(m.CostHistory)-1]
}

// sqDist computes ||c - x||² for dense c, sparse x.
func sqDist(center []float64, x linalg.SparseVector) float64 {
	var cNorm float64
	for _, v := range center {
		cNorm += v * v
	}
	var xNorm, dot float64
	for i, ix := range x.Indices {
		v := x.Values[i]
		xNorm += v * v
		dot += center[ix] * v
	}
	d := cNorm - 2*dot + xNorm
	if d < 0 {
		d = 0
	}
	return d
}

// TrainKMeans runs Lloyd's algorithm: one distributed aggregation per
// iteration computes every cluster's point sum, count and the total
// cost against the current centers.
func TrainKMeans(points *rdd.RDD[linalg.SparseVector], cfg KMeansConfig) (*KMeansModel, error) {
	opts, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	k, dim := cfg.K, cfg.NumFeatures

	// Initialize centers from the first K points (deterministic; the
	// callers shuffle their data or accept seeding quality).
	seedPts, err := rdd.Take(points, k)
	if err != nil {
		return nil, err
	}
	if len(seedPts) < k {
		return nil, fmt.Errorf("mllib: only %d points for K=%d", len(seedPts), k)
	}
	centers := make([][]float64, k)
	for i, p := range seedPts {
		if p.Dim != dim {
			return nil, fmt.Errorf("mllib: point dim %d != NumFeatures %d", p.Dim, dim)
		}
		centers[i] = p.Dense()
	}

	model := &KMeansModel{Centers: centers}
	// Aggregator layout: [k*dim) sums, [k*dim, k*dim+k) counts, last cost.
	aggDim := k*dim + k + 1

	tr, root, tctx := startTrainSpan(points.Context(), "kmeans", cfg.Strategy, cfg.Ctx)
	defer func() { root.End() }()

	var plan *packedPlan
	if cfg.Packed != PackedOff {
		plan = newPackedVecPlan(points, dim)
		defer plan.release()
	}
	root.SetAttr("packed", fmt.Sprint(plan != nil))

	for iter := 0; iter < cfg.Iterations; iter++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				root.SetAttr("error", err.Error())
				return nil, fmt.Errorf("mllib: kmeans iteration %d: %w", iter, err)
			}
		}
		snapshot := make([][]float64, k)
		for i, c := range centers {
			snapshot[i] = append([]float64(nil), c...)
		}
		it, ictx := startIteration(tr, root, tctx, iter+1)
		var agg []float64
		if plan != nil {
			// Packed plane: flatten the snapshot, precompute center norms
			// once per iteration (same arithmetic sequence as sqDist —
			// assignments stay bitwise identical), fuse per partition.
			flat := make([]float64, k*dim)
			for i, c := range snapshot {
				copy(flat[i*dim:(i+1)*dim], c)
			}
			cNorms := make([]float64, k)
			linalg.CSRKMeansCenterNorms(flat, k, dim, cNorms)
			agg, err = core.AggregateF64(ictx, plan.packed, core.F64Funcs[packedPart]{Dim: aggDim, SeqOp: packedKMeansSeqOp(flat, cNorms, k, dim)}, opts...)
		} else {
			agg, err = core.AggregateF64(ictx, points, core.F64Funcs[linalg.SparseVector]{Dim: aggDim, SeqOp: func(acc []float64, x linalg.SparseVector) []float64 {
				best, bestDist := 0, math.Inf(1)
				for c, center := range snapshot {
					if d := sqDist(center, x); d < bestDist {
						best, bestDist = c, d
					}
				}
				linalg.Axpy(1, x, acc[best*dim:(best+1)*dim])
				acc[k*dim+best]++
				acc[k*dim+k] += bestDist
				return acc
			}}, opts...)
		}
		if err != nil {
			it.EndErr(err)
			root.SetAttr("error", err.Error())
			return nil, fmt.Errorf("mllib: kmeans iteration %d: %w", iter, err)
		}
		it.End()
		model.CostHistory = append(model.CostHistory, agg[k*dim+k])

		moved := 0.0
		for c := 0; c < k; c++ {
			count := agg[k*dim+c]
			if count == 0 {
				continue // keep the empty cluster's center
			}
			var shift float64
			for j := 0; j < dim; j++ {
				nv := agg[c*dim+j] / count
				d := nv - centers[c][j]
				shift += d * d
				centers[c][j] = nv
			}
			if s := math.Sqrt(shift); s > moved {
				moved = s
			}
		}
		if moved < cfg.ConvergenceTol {
			break
		}
	}
	return model, nil
}
