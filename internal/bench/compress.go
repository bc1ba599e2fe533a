package bench

// CompressSweep is the evidence figure for the wire codec layer
// (DESIGN.md §13): the real collective stack over TCP loopback, running
// the ring reduce-scatter at MLlib-shaped segment sizes under every
// codec, reporting actual bytes on the wire (endpoint counters feed the
// ring.step histograms — nothing simulated) against the dense raw
// equivalent, plus wall clock. The second half is the lossy-training
// check: logistic regression to a dense target loss, counting
// iterations under each codec — compression that halves bytes but
// doubles iterations is a loss, and this table is where that would
// show.
//
// `make bench-compare` renders this as BENCH_PR6.json.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sparker/internal/collective"
	"sparker/internal/comm"
	"sparker/internal/core"
	"sparker/internal/data"
	"sparker/internal/metrics"
	"sparker/internal/mllib"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// compressCodecs are the sweep's wire modes, dense first as the
// baseline.
var compressCodecs = []collective.Compression{
	{Codec: collective.CodecNone},
	{Codec: collective.CodecFP16},
	{Codec: collective.CodecInt8},
	{Codec: collective.CodecTopK, TopKRatio: 0.01},
}

// compressPoint is one segment size of the wire sweep: the 1MB
// mid-size and the paper's 7.6MB avazu-shaped aggregator.
type compressPoint struct {
	segBytes int
	trials   int
}

var defaultCompressPoints = []compressPoint{
	{segBytes: 1 << 20, trials: 8},
	{segBytes: 7_600_000, trials: 5},
}

// compressModeResult is one (size, codec) measurement.
type compressModeResult struct {
	wallP50   time.Duration
	wireBytes int64 // Σ ring.step.bytes across ranks: actual frames sent
	rawBytes  int64 // Σ ring.step.raw.bytes: dense equivalent of the same sends
}

// ratioMilli is the bytes-on-wire reduction ×1000 (milli rounding, so
// fp16's 3.9997× at realistic header overhead reports as 4000).
func (m compressModeResult) ratioMilli() int64 {
	if m.wireBytes == 0 {
		return 0
	}
	return int64(float64(m.rawBytes)/float64(m.wireBytes)*1000 + 0.5)
}

// runCompressMode measures one codec at one segment size: n ranks over
// mkNet, interleavable trials, per-rank metrics registries summed at
// the end.
func runCompressMode(mkNet func() transport.Network, name string, n, p, segLen, warmup, trials int, comp collective.Compression) (compressModeResult, error) {
	var res compressModeResult
	net := mkNet()
	defer net.Close()
	eps, err := comm.NewGroup(net, name, n)
	if err != nil {
		return res, err
	}
	defer comm.CloseGroup(eps)

	rng := rand.New(rand.NewSource(6))
	inputs := make([][][]float64, n)
	for r := range inputs {
		inputs[r] = make([][]float64, p*n)
		for i := range inputs[r] {
			seg := make([]float64, segLen)
			for j := range seg {
				seg[j] = rng.NormFloat64()
			}
			inputs[r][i] = seg
		}
	}
	regs := make([]*metrics.Registry, n)
	ctxs := make([]context.Context, n)
	for r := range ctxs {
		regs[r] = metrics.NewRegistry()
		ctx := metrics.NewContext(context.Background(), regs[r])
		ctx = collective.WithChunkBytes(ctx, 0) // auto-sized chunk trains
		if comp.Codec != collective.CodecNone {
			ctx = collective.WithCompression(ctx, comp)
		}
		ctxs[r] = ctx
	}

	var walls []time.Duration
	for t := 0; t < warmup+trials; t++ {
		start := time.Now()
		errs := make(chan error, n)
		for _, e := range eps {
			go func(e *comm.Endpoint) {
				_, err := collective.RingReduceScatter(ctxs[e.Rank()], e, inputs[e.Rank()], p, collective.F64Ops())
				errs <- err
			}(e)
		}
		for range eps {
			if err := <-errs; err != nil {
				return res, err
			}
		}
		if t >= warmup {
			walls = append(walls, time.Since(start))
		}
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	res.wallP50 = durQuantile(walls, 0.50)
	for _, reg := range regs {
		res.wireBytes += reg.Histogram(metrics.HistRingStepBytes).Snapshot().Sum
		if comp.Codec != collective.CodecNone {
			res.rawBytes += reg.Histogram(metrics.HistRingStepRawBytes).Snapshot().Sum
		}
	}
	if comp.Codec == collective.CodecNone {
		res.rawBytes = res.wireBytes // dense frames are their own raw size
	}
	return res, nil
}

// compressLabel names a codec row, marking error feedback.
func compressLabel(c collective.Compression) string {
	s := c.Codec.String()
	if c.ErrorFeedback {
		s += "+ef"
	}
	return s
}

// compressLossCodecs are the training-convergence modes: quantizers
// with error feedback (the EF-SGD construction the codec layer exists
// for), top-k with EF as the aggressive point.
var compressLossCodecs = []collective.Compression{
	{Codec: collective.CodecFP16},
	{Codec: collective.CodecInt8, ErrorFeedback: true},
	{Codec: collective.CodecTopK, TopKRatio: 0.01, ErrorFeedback: true},
}

// lrCurve trains LR under comp for iters iterations and returns the
// true loss at the weights entering each iteration. The loss is
// measured with a separate uncompressed aggregation: the training
// run's own loss estimate travels through the codec — top-k can drop
// the aggregator's loss/count scalar tail outright, reporting a bogus
// near-zero loss — so a trustworthy time-to-target curve needs clean
// reads. The gradient step itself uses the compressed aggregation,
// which is the behavior under test.
func lrCurve(train *rdd.RDD[mllib.LabeledPoint], dim, iters int, comp collective.Compression) ([]float64, error) {
	w := make([]float64, dim)
	losses := make([]float64, 0, iters)
	seqOp := func(snapshot []float64) func(acc []float64, p mllib.LabeledPoint) []float64 {
		return func(acc []float64, p mllib.LabeledPoint) []float64 {
			loss := mllib.LogisticGradient{}.Compute(p.Features, p.Label, snapshot, acc[:dim])
			acc[dim] += loss
			acc[dim+1]++
			return acc
		}
	}
	for iter := 1; iter <= iters; iter++ {
		snap := append([]float64(nil), w...)
		clean, err := mllib.AggregateF64Ctx(context.Background(), train, dim+2, seqOp(snap), mllib.StrategyAllReduce, 2, 0)
		if err != nil {
			return nil, err
		}
		count := clean[dim+1]
		if count == 0 {
			return nil, fmt.Errorf("bench: empty LR dataset")
		}
		losses = append(losses, clean[dim]/count)
		agg := clean
		if comp.Codec != collective.CodecNone {
			if agg, err = mllib.AggregateF64Ctx(context.Background(), train, dim+2, seqOp(snap), mllib.StrategyAllReduce, 2, 0,
				core.WithCompression(comp.Codec, comp)); err != nil {
				return nil, err
			}
		}
		g := agg[:dim]
		for i := range g {
			g[i] /= count // the clean count: the codec may have mangled its own
		}
		w, _ = mllib.SimpleUpdater{}.Update(w, g, 1, iter, 0)
	}
	return losses, nil
}

// lrToTarget returns the 1-based iteration at which the true loss
// first reached target (0 = never within maxIters), plus the final
// loss. A non-finite loss means the compressed run diverged; nothing
// after that point counts as reaching the target.
func lrToTarget(train *rdd.RDD[mllib.LabeledPoint], dim, maxIters int, target float64, comp collective.Compression) (int, float64, error) {
	losses, err := lrCurve(train, dim, maxIters, comp)
	if err != nil {
		return 0, 0, err
	}
	reached := 0
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			break
		}
		if l <= target*1.001 {
			reached = i + 1
			break
		}
	}
	return reached, losses[len(losses)-1], nil
}

// compressSweep runs the wire and training halves. Split from
// CompressSweep so tests can run it small on the mem transport.
func compressSweep(mkNet func() transport.Network, transportName string, n, p int, points []compressPoint, lrIters int) (*Report, error) {
	r := &Report{
		Title:     "Wire compression sweep: codec bytes-on-wire and LR time-to-target-loss",
		Header:    []string{"Segment", "Codec", "Wall p50", "Wire bytes", "Raw bytes", "Reduction"},
		Quantiles: map[string]int64{},
	}
	for _, pt := range points {
		segLen := pt.segBytes / 8
		tag := fmtBytes(int64(pt.segBytes))
		for _, comp := range compressCodecs {
			label := compressLabel(comp)
			res, err := runCompressMode(mkNet, fmt.Sprintf("compsweep-%s-%s", tag, label),
				n, p, segLen, 1, pt.trials, comp)
			if err != nil {
				return nil, fmt.Errorf("bench: compress %s/%s: %w", tag, label, err)
			}
			r.AddRow(tag, label, fdur(res.wallP50),
				fmtBytes(res.wireBytes), fmtBytes(res.rawBytes),
				fmt.Sprintf("%.1f×", float64(res.ratioMilli())/1000))
			pre := "compress/" + tag + "/" + label
			r.Quantiles[pre+"/wire_bytes"] = res.wireBytes
			r.Quantiles[pre+"/raw_bytes"] = res.rawBytes
			r.Quantiles[pre+"/ratio_milli"] = res.ratioMilli()
			r.Quantiles[pre+"/wall_p50_ns"] = int64(res.wallP50)
		}
	}

	// Training half: dense LR fixes the target loss; each codec races to
	// it with a 2× iteration budget so slow convergence is visible, not
	// truncated at the pass line.
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "bench-compress-lr",
		NumExecutors:     4,
		CoresPerExecutor: 1,
	})
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	prof, err := data.ProfileByName("avazu")
	if err != nil {
		return nil, err
	}
	sp := prof.Scaled(200_000)
	spec := sp.ClassificationSpec(1)
	spec.NNZAlpha = 1.5 // power-law rows: the avazu shape the profile models
	pts := data.GenClassification(spec)
	train := rdd.FromSlice(ctx, pts, 4).Cache()

	denseIter, denseLoss, err := lrToTarget(train, sp.Features, lrIters, 0, collective.Compression{})
	if err != nil {
		return nil, err
	}
	_ = denseIter // dense defines the target; by construction it hits at lrIters
	r.Quantiles["compress/lr/iters/dense"] = int64(lrIters)
	r.AddRow("LR", "dense", "-", "-", "-", fmt.Sprintf("target loss %.6f in %d iters", denseLoss, lrIters))
	for _, comp := range compressLossCodecs {
		label := compressLabel(comp)
		reached, final, err := lrToTarget(train, sp.Features, 2*lrIters, denseLoss, comp)
		if err != nil {
			return nil, fmt.Errorf("bench: compress lr %s: %w", label, err)
		}
		note := fmt.Sprintf("loss %.6f, target hit at iter %d", final, reached)
		ratioMilli := int64(0)
		if reached > 0 {
			ratioMilli = int64(float64(reached)/float64(lrIters)*1000 + 0.5)
		} else {
			note = fmt.Sprintf("loss %.6f, target NOT reached in %d iters", final, 2*lrIters)
		}
		r.AddRow("LR", label, "-", "-", "-", note)
		r.Quantiles["compress/lr/iters/"+label] = int64(reached)
		r.Quantiles["compress/lr/iters_ratio_milli/"+label] = ratioMilli
	}

	r.AddNote("real collective layer over %s loopback: N=%d ranks, P=%d channels, auto-sized chunk trains", transportName, n, p)
	r.AddNote("wire bytes = Σ ring.step.bytes (frames actually sent); raw bytes = Σ ring.step.raw.bytes (dense equivalent of the same sends); reduction = raw/wire")
	r.AddNote("top-k keeps k=1%% of elements per chunk (index+value frames, dense fallback above the 12k ≥ 8n density threshold)")
	r.AddNote("LR: avazu-shaped synthetic (power-law nnz α=1.5), %d-iteration dense run fixes the target loss; codecs get a 2× budget; iters_ratio_milli ≤ 1200 is the EF acceptance line", lrIters)
	r.AddNote("loss curves come from a clean (uncompressed) read each iteration — the compressed run's own loss estimate is untrusted; a non-finite loss marks the run diverged")
	return r, nil
}

// CompressSweep runs the full TCP-loopback codec sweep. Reach it via
// `sparkerbench -only compress` or `make bench-compare`.
func CompressSweep() (*Report, error) {
	return compressSweep(func() transport.Network { return transport.NewTCP() },
		"tcp", 4, 1, defaultCompressPoints, 15)
}
