package mllib

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sparker/internal/collective"
	"sparker/internal/core"
	"sparker/internal/linalg"
	"sparker/internal/rdd"
	"sparker/internal/trace"
)

// Strategy selects the aggregation implementation a training run uses —
// the single switch the paper says MLlib users flip to enjoy split
// aggregation ("MLlib users only need a configuration parameter").
type Strategy int

// Aggregation strategies.
const (
	// StrategyTree is vanilla Spark treeAggregate.
	StrategyTree Strategy = iota
	// StrategyTreeIMM is tree aggregation with in-memory merge.
	StrategyTreeIMM
	// StrategySplit is Sparker's split aggregation over the PDR.
	StrategySplit
	// StrategyAllReduce is the allreduce extension: split aggregation
	// whose result stays resident on every executor, removing the
	// driver gather (the paper's §6 future-work direction).
	StrategyAllReduce
)

// ParseStrategy converts a config-string ("tree", "imm"/"tree+imm",
// "split", "allreduce") into a Strategy — the single knob the paper
// says MLlib users flip.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "tree":
		return StrategyTree, nil
	case "imm", "tree+imm":
		return StrategyTreeIMM, nil
	case "split":
		return StrategySplit, nil
	case "allreduce":
		return StrategyAllReduce, nil
	default:
		return 0, fmt.Errorf("mllib: unknown strategy %q (tree, imm, split, allreduce)", s)
	}
}

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyTree:
		return "tree"
	case StrategyTreeIMM:
		return "tree+imm"
	case StrategySplit:
		return "split"
	case StrategyAllReduce:
		return "allreduce"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// CoreStrategy maps an mllib strategy to the unified core.Aggregate
// strategy.
func (s Strategy) CoreStrategy() (core.Strategy, error) {
	switch s {
	case StrategyTree:
		return core.StrategyTree, nil
	case StrategyTreeIMM:
		return core.StrategyIMM, nil
	case StrategySplit:
		return core.StrategySplit, nil
	case StrategyAllReduce:
		return core.StrategyAllReduce, nil
	default:
		return 0, fmt.Errorf("mllib: unknown strategy %d", int(s))
	}
}

// f64Ops is the shared fused collective implementation for the flat
// []float64 aggregators of every mllib model. Passing it as
// AggFuncs.Ops replaces the generic serde path in the ring stage with
// the chunked zero-decode reduce and the packed chunk form.
var f64Ops = collective.F64Ops()

// AggregateF64Ctx reduces a flattened []float64 aggregator over an RDD
// using the chosen strategy. It is the shared plumbing of every model:
// each builds its per-iteration sufficient statistics as one flat
// vector, which is exactly the shape that makes splitOp/concatOp
// trivial (Figure 7's splitA/concatA). All strategies route through
// core.Aggregate, so training inherits its per-step deadlines and
// failure handling. Cancelling ctx bounds the ring collectives, and a
// trace span carried in ctx (an iteration span, typically) becomes the
// parent of the per-call "aggregate" span so whole training runs stitch
// into one timeline. extra options (e.g. core.WithTenant) are appended
// after the strategy options, so they may override any of them.
func AggregateF64Ctx[T any](ctx context.Context, r *rdd.RDD[T], dim int, seqOp func(acc []float64, v T) []float64, s Strategy, depth, parallelism int, extra ...core.AggOption) ([]float64, error) {
	cs, err := s.CoreStrategy()
	if err != nil {
		return nil, err
	}
	opts := append([]core.AggOption{
		core.WithStrategy(cs), core.WithDepth(depth), core.WithParallelism(parallelism),
	}, extra...)
	// Accumulators cycle through linalg's vector free list, and the
	// split is by view: the ring reduces in place in each executor's
	// resident aggregator (DESIGN.md "Aggregator ownership and
	// lifetime"). ConcatSlices copies and serde encodes by value, so a
	// recycled aggregator is never aliased.
	return core.Aggregate(ctx, r, core.AggFuncs[T, []float64, []float64]{
		Zero:     func() []float64 { return linalg.GetVec(dim) },
		SeqOp:    seqOp,
		MergeOp:  core.AddF64,
		SplitOp:  core.SplitSlice[float64],
		ReduceOp: core.AddF64,
		ConcatOp: core.ConcatSlices[float64],
		Ops:      &f64Ops,
		Recycle:  linalg.PutVec,
	}, opts...)
}

// startTrainSpan opens the root "train" span for one optimizer run and
// returns the context iteration spans derive from. Everything no-ops
// (and the context stays bare) when the rdd context has no tracer. A
// non-nil base context becomes the run's root context, so cancelling
// it cancels every per-iteration collective the run launches.
func startTrainSpan(rc *rdd.Context, model string, s Strategy, base context.Context) (*trace.Tracer, *trace.ActiveSpan, context.Context) {
	if base == nil {
		base = context.Background()
	}
	tr := rc.Tracer()
	root := tr.StartRoot("train")
	root.SetAttr("model", model)
	root.SetAttr("strategy", s.String())
	return tr, root, trace.WithSpan(base, root)
}

// startIteration opens one per-iteration span under the train root.
func startIteration(tr *trace.Tracer, root *trace.ActiveSpan, tctx context.Context, iter int) (*trace.ActiveSpan, context.Context) {
	it := tr.StartSpan("iteration", root.Context())
	it.SetInt("iter", int64(iter))
	return it, trace.WithSpan(tctx, it)
}

// GDConfig configures RunGradientDescent.
type GDConfig struct {
	// StepSize is the base learning rate (default 1.0).
	StepSize float64
	// Iterations is the number of outer iterations (default 10).
	Iterations int
	// RegParam is passed to the updater (default 0).
	RegParam float64
	// MiniBatchFraction subsamples each iteration (default 1.0, the
	// paper's SVM setting).
	MiniBatchFraction float64
	// Strategy picks the aggregation implementation.
	Strategy Strategy
	// Depth is the treeAggregate depth (default 2).
	Depth int
	// Parallelism is the split-aggregation ring parallelism (default:
	// context setting).
	Parallelism int
	// Seed drives mini-batch sampling.
	Seed int64
	// ConvergenceTol stops early when the relative weight change drops
	// below it (0 disables, matching fixed-iteration benchmarks).
	ConvergenceTol float64
	// Tenant charges the run's aggregation stages to the named
	// scheduler fair-share account (empty: default tenant). Set by
	// multi-tenant drivers such as sparker-serve.
	Tenant string
	// Ctx, when non-nil, bounds the run: each iteration checks it
	// before launching work and the per-iteration aggregations derive
	// from it, so cancelling Ctx aborts the run promptly with
	// context.Canceled (the server's DELETE /api/v1/jobs path).
	Ctx context.Context
	// StepDeadline bounds each ring collective step (core.WithDeadline
	// semantics: non-positive keeps the core default). Short
	// deadlines make fault demos degrade in seconds instead of minutes.
	StepDeadline time.Duration
	// Packed selects the CSR compute plane (default PackedAuto: packed
	// whenever the Gradient has a fused kernel). The packed fold is
	// bitwise-identical to the per-point path, so results never depend
	// on this knob.
	Packed PackedMode
}

func (c *GDConfig) fill() {
	if c.StepSize == 0 {
		c.StepSize = 1.0
	}
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.MiniBatchFraction == 0 {
		c.MiniBatchFraction = 1.0
	}
	if c.Depth == 0 {
		c.Depth = 2
	}
}

// RunGradientDescent is MLlib's GradientDescent.runMiniBatchSGD: per
// iteration one aggregation computes (gradientSum, lossSum, count) over
// the (sampled) data against the current weights, then the updater
// steps. It returns the final weights and the per-iteration loss
// history.
func RunGradientDescent(data *rdd.RDD[LabeledPoint], grad Gradient, up Updater, initial []float64, cfg GDConfig) (finalW []float64, lossHist []float64, retErr error) {
	cfg.fill()
	dim := len(initial)
	if dim == 0 {
		return nil, nil, fmt.Errorf("mllib: empty initial weights")
	}
	// Updaters never write their weights input and return a slice that
	// does not alias it (a fresh one, or the consumed aggregator's
	// storage), so the caller's vector serves as the first iteration's
	// weights as is.
	weights := initial
	losses := make([]float64, 0, cfg.Iterations)

	tr, root, tctx := startTrainSpan(data.Context(), "gradient-descent", cfg.Strategy, cfg.Ctx)
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

	for iter := 1; iter <= cfg.Iterations; iter++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("mllib: iteration %d: %w", iter, err)
			}
		}
		w := weights // this iteration's vector, whatever the variable holds later; never written

		it, ictx := startIteration(tr, root, tctx, iter)
		var extra []core.AggOption
		if cfg.Tenant != "" {
			extra = append(extra, core.WithTenant(cfg.Tenant))
		}
		if cfg.StepDeadline != 0 {
			extra = append(extra, core.WithDeadline(cfg.StepDeadline))
		}
		// Aggregator layout: [0,dim) gradient sum, [dim] loss sum,
		// [dim+1] sample count.
		var agg []float64
		var err error
		if plan != nil {
			// Packed plane: one fused kernel pass per partition, with
			// in-kernel minibatch sampling over the same RNG stream
			// sampleRDD would use.
			agg, err = AggregateF64Ctx(ictx, plan.packed, dim+2,
				packedGradSeqOp(kind, w, dim, cfg.MiniBatchFraction, cfg.Seed, iter),
				cfg.Strategy, cfg.Depth, cfg.Parallelism, extra...)
		} else {
			batch := data
			if cfg.MiniBatchFraction < 1.0 {
				batch = sampleRDD(data, cfg.MiniBatchFraction, cfg.Seed, iter)
			}
			agg, err = AggregateF64Ctx(ictx, batch, dim+2, func(acc []float64, p LabeledPoint) []float64 {
				loss := grad.Compute(p.Features, p.Label, w, acc[:dim])
				acc[dim] += loss
				acc[dim+1]++
				return acc
			}, cfg.Strategy, cfg.Depth, cfg.Parallelism, extra...)
		}
		if err != nil {
			it.EndErr(err)
			return nil, nil, fmt.Errorf("mllib: iteration %d: %w", iter, err)
		}
		count := agg[dim+1]
		if count == 0 {
			losses = append(losses, math.NaN())
			it.End()
			continue
		}
		newW, regVal := updateMean(up, weights, agg[:dim], count, cfg.StepSize, iter, cfg.RegParam)
		losses = append(losses, agg[dim]/count+regVal)
		it.End()

		if cfg.ConvergenceTol > 0 && converged(weights, newW, cfg.ConvergenceTol) {
			weights = newW
			break
		}
		weights = newW
	}
	if &weights[0] == &initial[0] {
		// No iteration produced an update; the result must still not
		// alias the caller's vector.
		weights = append([]float64(nil), initial...)
	}
	return weights, losses, nil
}

// converged tests relative weight movement against tol.
func converged(prev, next []float64, tol float64) bool {
	var diff, norm float64
	for i := range prev {
		d := next[i] - prev[i]
		diff += d * d
		norm += next[i] * next[i]
	}
	return math.Sqrt(diff) < tol*math.Max(math.Sqrt(norm), 1)
}

// sampleRDD subsamples deterministically per (seed, iter, partition),
// so task retries observe identical batches — the determinism Spark
// gets from seeded samplers. It is the per-point fallback only: it
// allocates a fresh []LabeledPoint per iteration, which is exactly the
// churn the packed plane's samplePackedRows (pooled row indices over
// the resident CSR arenas, same RNG stream) eliminates.
func sampleRDD(data *rdd.RDD[LabeledPoint], frac float64, seed int64, iter int) *rdd.RDD[LabeledPoint] {
	return rdd.MapPartitions(data, func(part int, in []LabeledPoint) ([]LabeledPoint, error) {
		rng := rand.New(rand.NewSource(seed ^ int64(iter)*1_000_003 ^ int64(part)*7_777_777))
		out := make([]LabeledPoint, 0, int(float64(len(in))*frac)+1)
		for _, p := range in {
			if rng.Float64() < frac {
				out = append(out, p)
			}
		}
		return out, nil
	})
}
