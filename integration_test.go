package sparker

// Integration tests spanning the whole stack: engine + communicator +
// collectives + aggregation strategies + MLlib, over both transports,
// with fault injection.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparker/internal/core"
	"sparker/internal/data"
	"sparker/internal/eventlog"
	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/mllib"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// TestTrainingOverRealTCP runs logistic regression end-to-end with the
// whole engine — task dispatch, tree-round blocks, ring reduce-scatter —
// over real loopback sockets, and checks tree and split produce the
// same model.
func TestTrainingOverRealTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration in -short mode")
	}
	net := transport.NewTCP()
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "itcp",
		NumExecutors:     3,
		CoresPerExecutor: 2,
		Network:          net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	defer net.Close()

	spec := data.ClassificationSpec{Samples: 600, Features: 40, NNZPerSample: 8, Seed: 5}
	points := data.GenClassification(spec)
	train := rdd.FromSlice(ctx, points, 6).Cache()

	var models []*mllib.LinearModel
	for _, s := range []mllib.Strategy{mllib.StrategyTree, mllib.StrategySplit} {
		m, err := mllib.TrainLogisticRegression(train, mllib.LogisticRegressionConfig{
			NumFeatures: spec.Features,
			GD:          mllib.GDConfig{Iterations: 8, StepSize: 2, Strategy: s},
		})
		if err != nil {
			t.Fatalf("strategy %v over TCP: %v", s, err)
		}
		models = append(models, m)
	}
	for i := range models[0].Weights {
		if math.Abs(models[0].Weights[i]-models[1].Weights[i]) > 1e-8 {
			t.Fatalf("tree and split models diverge over TCP at weight %d", i)
		}
	}
	if acc := models[1].Accuracy(points); acc < 0.8 {
		t.Fatalf("accuracy %v < 0.8", acc)
	}
}

// TestTrainingSurvivesTaskFailures injects a failure into every
// iteration's aggregation stage; whole-stage retry must keep the final
// model identical to a failure-free run.
func TestTrainingSurvivesTaskFailures(t *testing.T) {
	run := func(inject bool) []float64 {
		ctx, err := rdd.NewContext(rdd.Config{
			Name:             fmt.Sprintf("ifault-%v", inject),
			NumExecutors:     2,
			CoresPerExecutor: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Close()
		const dim, samples = 16, 200
		var fails int64
		train := rdd.Generate(ctx, 4, func(part int) ([]mllib.LabeledPoint, error) {
			out := make([]mllib.LabeledPoint, 0, samples/4)
			for i := part * samples / 4; i < (part+1)*samples/4; i++ {
				f0 := float64(i%13)/13 - 0.5
				sv, err := linalg.NewSparse(dim, []int32{0, 1}, []float64{f0, -f0 / 2})
				if err != nil {
					return nil, err
				}
				label := 0.0
				if f0 > 0 {
					label = 1
				}
				out = append(out, mllib.LabeledPoint{Label: label, Features: sv})
			}
			return out, nil
		}).Cache()

		zero := func() []float64 { return make([]float64, dim) }
		seqOp := func(acc []float64, p mllib.LabeledPoint) []float64 {
			if inject && atomic.AddInt64(&fails, 1) == 57 {
				panic("injected failure mid-aggregation")
			}
			linalg.Axpy(p.Label+0.5, p.Features, acc)
			return acc
		}
		got, err := core.Aggregate(context.Background(), train, core.AggFuncs[mllib.LabeledPoint, []float64, []float64]{
			Zero: zero, SeqOp: seqOp, MergeOp: core.AddF64,
			SplitOp: core.SplitSliceCopy[float64], ReduceOp: core.AddF64, ConcatOp: core.ConcatSlices[float64],
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	clean := run(false)
	faulty := run(true)
	for i := range clean {
		if math.Abs(clean[i]-faulty[i]) > 1e-9 {
			t.Fatalf("fault recovery changed the aggregate at %d: %v vs %v", i, clean[i], faulty[i])
		}
	}
}

// TestBroadcastDrivenIteration mimics MLlib's weight distribution: the
// driver broadcasts weights, tasks read them executor-side via the
// broadcast cache, and the aggregation consumes them.
func TestBroadcastDrivenIteration(t *testing.T) {
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "ibcast",
		NumExecutors:     3,
		CoresPerExecutor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	const dim = 8
	base := rdd.Generate(ctx, 6, func(part int) ([]int64, error) {
		out := make([]int64, 50)
		for i := range out {
			out[i] = int64(part*50 + i)
		}
		return out, nil
	}).Cache()

	weights := make([]float64, dim)
	for iter := 0; iter < 3; iter++ {
		b, err := rdd.NewBroadcast(ctx, weights)
		if err != nil {
			t.Fatal(err)
		}
		// Tasks read the broadcast weights through the executor cache
		// and fold them into the aggregate.
		scored := rdd.Derive(base, func(ec *rdd.ExecContext, part int, parent func() ([]int64, error)) ([]int64, error) {
			w, err := b.Value(ec)
			if err != nil {
				return nil, err
			}
			in, err := parent()
			if err != nil {
				return nil, err
			}
			out := make([]int64, len(in))
			for i, v := range in {
				out[i] = v + int64(w[int(v)%dim])
			}
			return out, nil
		})
		agg, err := core.Aggregate(context.Background(), scored, core.AggFuncs[int64, []float64, []float64]{
			Zero: func() []float64 { return make([]float64, dim) },
			SeqOp: func(acc []float64, v int64) []float64 {
				acc[int(v)%dim]++
				return acc
			},
			MergeOp: core.AddF64, SplitOp: core.SplitSliceCopy[float64],
			ReduceOp: core.AddF64, ConcatOp: core.ConcatSlices[float64],
		})
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for i := range weights {
			weights[i] += agg[i] / 100
			total += agg[i]
		}
		if total != 300 {
			t.Fatalf("iteration %d lost elements: %v", iter, total)
		}
		if err := b.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentJobsOneContext submits aggregations from multiple
// goroutines against one context; the scheduler must keep them
// isolated.
func TestConcurrentJobsOneContext(t *testing.T) {
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "iconc",
		NumExecutors:     2,
		CoresPerExecutor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rdd.Generate(ctx, 4, func(part int) ([]int64, error) {
				out := make([]int64, 25)
				for i := range out {
					out[i] = int64(g) // every element is g
				}
				return out, nil
			})
			sum, err := core.Aggregate(context.Background(), r, core.AggFuncs[int64, int64, int64]{
				Zero:    func() int64 { return 0 },
				SeqOp:   func(a int64, v int64) int64 { return a + v },
				MergeOp: func(a, b int64) int64 { return a + b },
				SplitOp: func(u int64, _, _ int) int64 { return u },
			}, core.WithStrategy(core.StrategyTree))
			if err != nil {
				t.Errorf("job %d: %v", g, err)
				return
			}
			if want := int64(g * 100); sum != want {
				t.Errorf("job %d: sum %d, want %d (cross-job contamination?)", g, sum, want)
			}
		}(g)
	}
	wg.Wait()
}

// TestAutoSplitTrainsModel drives the derived-callback path through a
// real gradient-descent-like loop.
func TestAutoSplitTrainsModel(t *testing.T) {
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "iauto",
		NumExecutors:     2,
		CoresPerExecutor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	const dim = 6
	type agg struct {
		Grad  []float64
		Loss  float64
		Count int64
	}
	train := rdd.Generate(ctx, 4, func(part int) ([]int64, error) {
		out := make([]int64, 40)
		for i := range out {
			out[i] = int64(part*40 + i)
		}
		return out, nil
	}).Cache()

	w := make([]float64, dim)
	var lastLoss float64
	for iter := 0; iter < 12; iter++ {
		snapshot := append([]float64(nil), w...)
		fns, rebuild, err := core.DerivedFuncs[int64](
			func() agg { return agg{Grad: make([]float64, dim)} },
			func(a agg, v int64) agg {
				x := float64(v%7) - 3
				pred := snapshot[int(v)%dim] * x
				diff := pred - x // target = x (identity weight 1)
				a.Grad[int(v)%dim] += diff * x
				a.Loss += diff * diff / 2
				a.Count++
				return a
			})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := core.Aggregate(context.Background(), train, fns)
		if err != nil {
			t.Fatal(err)
		}
		res := rebuild(seg)
		if res.Count != 160 {
			t.Fatalf("iteration %d counted %d samples", iter, res.Count)
		}
		for i := range w {
			w[i] -= 0.3 * res.Grad[i] / float64(res.Count)
		}
		loss := res.Loss / float64(res.Count)
		if iter > 0 && loss > lastLoss+1e-9 {
			t.Fatalf("loss increased: %v -> %v", lastLoss, loss)
		}
		lastLoss = loss
	}
	if lastLoss > 0.3 {
		t.Fatalf("final loss %v did not improve enough", lastLoss)
	}
}

// TestLibSVMFileToModel exercises the data path: write a libsvm file
// shape, read it back, train.
func TestLibSVMFileToModel(t *testing.T) {
	spec := data.ClassificationSpec{Samples: 300, Features: 20, NNZPerSample: 5, Seed: 2}
	pts := data.GenClassification(spec)

	ctx, err := rdd.NewContext(rdd.Config{Name: "ilibsvm", NumExecutors: 2, CoresPerExecutor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	train := rdd.FromSlice(ctx, pts, 4).Cache()
	m, err := mllib.TrainSVM(train, mllib.SVMConfig{
		NumFeatures: spec.Features,
		GD:          mllib.GDConfig{Iterations: 25, StepSize: 2, Strategy: mllib.StrategySplit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(pts); acc < 0.75 {
		t.Fatalf("SVM accuracy %v < 0.75", acc)
	}
}

// TestHistoryLogAnalysis reproduces the paper's Section-2 methodology:
// train a model with event logging enabled, then analyze the history
// log to locate the aggregation phases — the analysis that revealed
// treeAggregate as MLlib's hot-spot.
func TestHistoryLogAnalysis(t *testing.T) {
	var logBuf bytes.Buffer
	logger := eventlog.New(&logBuf)
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "ihistory",
		NumExecutors:     2,
		CoresPerExecutor: 2,
		EventLog:         logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	spec := data.ClassificationSpec{Samples: 400, Features: 30, NNZPerSample: 6, Seed: 9}
	train := rdd.FromSlice(ctx, data.GenClassification(spec), 4).Cache()
	if _, err := mllib.TrainLogisticRegression(train, mllib.LogisticRegressionConfig{
		NumFeatures: spec.Features,
		GD:          mllib.GDConfig{Iterations: 6, Strategy: mllib.StrategyTree},
	}); err != nil {
		t.Fatal(err)
	}
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := eventlog.Read(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	// 6 iterations × (agg-compute + agg-reduce) phases.
	if len(events) != 12 {
		t.Fatalf("got %d events, want 12", len(events))
	}
	b := eventlog.Analyze(events)
	if share := b.Share(metrics.PhaseAggCompute, metrics.PhaseAggReduce); share != 1.0 {
		t.Fatalf("aggregation share = %v (all logged phases are aggregation)", share)
	}
	if name, _ := b.Hotspot(); name != metrics.PhaseAggCompute && name != metrics.PhaseAggReduce {
		t.Fatalf("hotspot = %q, want an aggregation phase", name)
	}
}

// TestFunctionalAggregationShape measures the real implementations and
// asserts the paper's headline shape holds live: with a large
// aggregator, split aggregation beats tree aggregation by a wide
// margin because tree serializes one aggregator per task and merges
// serially in the driver. Margins are generous to stay robust on
// loaded machines.
func TestFunctionalAggregationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based test in -short mode")
	}
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "ishape",
		NumExecutors:     4,
		CoresPerExecutor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	const dim = 1 << 20 // 8 MB aggregator
	samples := rdd.Generate(ctx, 16, func(part int) ([]int64, error) {
		out := make([]int64, 32)
		for i := range out {
			out[i] = int64(part*32 + i)
		}
		return out, nil
	}).Cache()
	if _, err := rdd.Count(samples); err != nil {
		t.Fatal(err)
	}
	seqOp := func(acc []float64, v int64) []float64 {
		acc[int(v)%dim]++
		return acc
	}
	timeIt := func(s mllib.Strategy) time.Duration {
		opts, err := s.Options(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Warm once, then take the best of 3 to shed scheduler noise.
		if _, err := core.AggregateF64(context.Background(), samples, core.F64Funcs[int64]{Dim: dim, SeqOp: seqOp}, opts...); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := core.AggregateF64(context.Background(), samples, core.F64Funcs[int64]{Dim: dim, SeqOp: seqOp}, opts...); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	tree := timeIt(mllib.StrategyTree)
	split := timeIt(mllib.StrategySplit)
	t.Logf("8MB aggregator: tree=%v split=%v (%.1f×)", tree, split, float64(tree)/float64(split))
	if float64(split)*1.3 > float64(tree) {
		t.Errorf("expected split ≥ 1.3× faster than tree at 8MB aggregators; tree=%v split=%v", tree, split)
	}
}
