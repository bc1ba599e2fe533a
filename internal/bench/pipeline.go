package bench

// PipelineSweep is the before/after evidence for the pipelined
// double-buffered ring (DESIGN.md "Pipelined ring collectives"): a
// segment-size sweep of the real collective layer — not the calibrated
// simulation — over TCP loopback, running every size twice: chunking
// disabled (the PR 1 single-frame step) and chunking on (auto-sized
// chunk trains with sharded reduction). For each size it reports the
// ring-step latency p50/p95 of both modes from the engine's own
// histograms, the wall-clock speedup, and the overlap ratio measured
// from the ring-step trace spans (reduce_ns/overlap_ns attributes):
// the fraction of decode-reduce time that ran while wire work was
// still in flight, i.e. communication the pipeline actually hid.
//
// `make bench-compare` renders this as BENCH_PR4.json.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sparker/internal/collective"
	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// pipelinePoint is one column of the sweep.
type pipelinePoint struct {
	segBytes int // bytes per ring segment (8·segLen)
	trials   int // timed collectives per mode
}

// defaultPipelinePoints spans 1KB to the 154MB LDA-scale aggregator
// segments from Table 2. Trials shrink as segments grow: big segments
// are long and stable, small ones are latency-bound and noisy.
var defaultPipelinePoints = []pipelinePoint{
	{segBytes: 1 << 10, trials: 30},
	{segBytes: 64 << 10, trials: 20},
	{segBytes: 1 << 20, trials: 10},
	{segBytes: 7_600_000, trials: 12},
	{segBytes: 64 << 20, trials: 5},
	{segBytes: 154_000_000, trials: 5},
}

// pipelineModeResult is one (size, mode) measurement.
type pipelineModeResult struct {
	wallP50, wallP95 time.Duration // per-collective wall clock
	wallTotal        time.Duration // Σ timed trials — what training pays
	stepP50, stepP95 time.Duration // ring.step.ns across all ranks
	reduceNS         int64         // Σ chunk decode-reduce time (spans)
	overlapNS        int64         // Σ thereof overlapped with wire
}

// overlapRatio is overlapNS/reduceNS, or 0 when the mode never
// produced a chunked step (the off mode, or segments below one chunk).
func (m pipelineModeResult) overlapRatio() float64 {
	if m.reduceNS == 0 {
		return 0
	}
	return float64(m.overlapNS) / float64(m.reduceNS)
}

// durQuantile returns the q-th quantile of sorted per-trial durations.
func durQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// pipelineRig is one mode's live measurement state: a comm group over
// its own network, per-rank contexts, and the telemetry sinks the
// result is later read from.
type pipelineRig struct {
	net    transport.Network
	eps    []*comm.Endpoint
	regs   []*metrics.Registry
	exp    *trace.MemExporter
	ctxs   []context.Context
	inputs [][][]float64
	p      int
	walls  []time.Duration
}

// newPipelineRig builds the group and inputs for one (size, mode).
func newPipelineRig(mkNet func() transport.Network, name string, n, p, segLen int, chunked bool, cores int) (*pipelineRig, error) {
	rig := &pipelineRig{net: mkNet(), p: p}
	eps, err := comm.NewGroup(rig.net, name, n)
	if err != nil {
		rig.net.Close()
		return nil, err
	}
	rig.eps = eps

	// Deterministic dense inputs; reduce-scatter mutates them in place,
	// which is fine — later trials reduce the grown values, the timing
	// profile is identical.
	rng := rand.New(rand.NewSource(4))
	rig.inputs = make([][][]float64, n)
	for r := range rig.inputs {
		rig.inputs[r] = make([][]float64, p*n)
		for i := range rig.inputs[r] {
			seg := make([]float64, segLen)
			for j := range seg {
				seg[j] = rng.NormFloat64()
			}
			rig.inputs[r][i] = seg
		}
	}

	rig.exp = &trace.MemExporter{}
	rig.regs = make([]*metrics.Registry, n)
	rig.ctxs = make([]context.Context, n)
	for r := range rig.ctxs {
		rig.regs[r] = metrics.NewRegistry()
		tr := trace.New(rig.exp)
		ctx := trace.WithSpan(context.Background(), tr.StartRoot(fmt.Sprintf("%s-rank%d", name, r)))
		ctx = metrics.NewContext(ctx, rig.regs[r])
		if chunked {
			// 0 = auto: the adaptive controller, seeded by this same
			// registry as trials land.
			ctx = collective.WithCores(collective.WithChunkBytes(ctx, 0), cores)
		} else {
			ctx = collective.WithChunkBytes(ctx, -1)
		}
		rig.ctxs[r] = ctx
	}
	return rig, nil
}

func (rig *pipelineRig) close() {
	comm.CloseGroup(rig.eps)
	rig.net.Close()
}

// trial runs one ring reduce-scatter across all ranks; record=false is
// a warmup pass.
func (rig *pipelineRig) trial(record bool) error {
	start := time.Now()
	errs := make(chan error, len(rig.eps))
	for _, e := range rig.eps {
		go func(e *comm.Endpoint) {
			_, err := collective.RingReduceScatter(rig.ctxs[e.Rank()], e, rig.inputs[e.Rank()], rig.p, collective.F64Ops())
			errs <- err
		}(e)
	}
	for range rig.eps {
		if err := <-errs; err != nil {
			return err
		}
	}
	if record {
		rig.walls = append(rig.walls, time.Since(start))
	}
	return nil
}

// result folds the rig's walls, histograms and spans into the report
// form.
func (rig *pipelineRig) result() pipelineModeResult {
	var res pipelineModeResult
	walls := append([]time.Duration(nil), rig.walls...)
	for _, w := range walls {
		res.wallTotal += w
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	res.wallP50 = durQuantile(walls, 0.50)
	res.wallP95 = durQuantile(walls, 0.95)

	// Step latency across all ranks: merge the per-rank histograms.
	merged := metrics.NewRegistry().Histogram(metrics.HistRingStepNS)
	for _, reg := range rig.regs {
		merged.Merge(reg.Histogram(metrics.HistRingStepNS).Snapshot())
	}
	res.stepP50 = time.Duration(merged.Quantile(0.50))
	res.stepP95 = time.Duration(merged.Quantile(0.95))

	// Overlap from the ring-step spans: chunked steps carry the reduce
	// and overlapped-reduce accumulators as attributes.
	for _, s := range rig.exp.Named("ring-step") {
		if v, ok := s.Attr("reduce_ns"); ok {
			if ns, err := strconv.ParseInt(v, 10, 64); err == nil {
				res.reduceNS += ns
			}
		}
		if v, ok := s.Attr("overlap_ns"); ok {
			if ns, err := strconv.ParseInt(v, 10, 64); err == nil {
				res.overlapNS += ns
			}
		}
	}
	return res
}

// runPipelinePair measures chunking off and on at one segment size
// with the trials interleaved — off, on, off, on — so slow drift on a
// shared machine (CPU contention, thermal state) hits both modes
// equally and cancels out of the speedup ratio.
func runPipelinePair(mkNet func() transport.Network, name string, n, p, segLen, warmup, trials, cores int) (off, on pipelineModeResult, err error) {
	offRig, err := newPipelineRig(mkNet, name+"-off", n, p, segLen, false, cores)
	if err != nil {
		return off, on, err
	}
	defer offRig.close()
	onRig, err := newPipelineRig(mkNet, name+"-on", n, p, segLen, true, cores)
	if err != nil {
		return off, on, err
	}
	defer onRig.close()
	for t := 0; t < warmup+trials; t++ {
		if err := offRig.trial(t >= warmup); err != nil {
			return off, on, fmt.Errorf("chunking off: %w", err)
		}
		if err := onRig.trial(t >= warmup); err != nil {
			return off, on, fmt.Errorf("chunking on: %w", err)
		}
	}
	return offRig.result(), onRig.result(), nil
}

// pipelineSweep runs the off/on comparison at every point. Split from
// PipelineSweep so tests can run a small sweep on the mem transport.
func pipelineSweep(mkNet func() transport.Network, transportName string, n, p int, points []pipelinePoint) (*Report, error) {
	cores := runtime.NumCPU()
	r := &Report{
		Title: "Pipelined ring sweep: chunked double-buffered vs single-frame steps",
		Header: []string{"Segment", "Off step p50", "Off step p95", "On step p50",
			"On step p95", "Wall p50 off→on", "Speedup", "Overlap"},
		Quantiles: map[string]int64{},
	}
	for _, pt := range points {
		segLen := pt.segBytes / 8
		warmup := 1
		if pt.segBytes <= 1<<20 {
			warmup = 3
		}
		tag := fmtBytes(int64(pt.segBytes))
		off, on, err := runPipelinePair(mkNet, fmt.Sprintf("pipesweep-%s", tag), n, p, segLen, warmup, pt.trials, cores)
		if err != nil {
			return nil, fmt.Errorf("bench: pipeline %s: %w", tag, err)
		}
		// Speedup over the summed trial walls: training cost is the sum
		// of its iterations, so the off mode's GC/allocation tail spikes
		// count — they are exactly what the chunk pipeline removes.
		speedup := float64(off.wallTotal) / float64(max64(int64(on.wallTotal), 1))
		overlap := on.overlapRatio()
		r.AddRow(tag,
			fdur(off.stepP50), fdur(off.stepP95),
			fdur(on.stepP50), fdur(on.stepP95),
			fdur(off.wallP50)+" → "+fdur(on.wallP50),
			fx(speedup),
			fmt.Sprintf("%.0f%%", overlap*100))
		pre := "pipeline/" + tag
		r.Quantiles[pre+"/off/step_p50_ns"] = int64(off.stepP50)
		r.Quantiles[pre+"/off/step_p95_ns"] = int64(off.stepP95)
		r.Quantiles[pre+"/on/step_p50_ns"] = int64(on.stepP50)
		r.Quantiles[pre+"/on/step_p95_ns"] = int64(on.stepP95)
		r.Quantiles[pre+"/off/wall_p50_ns"] = int64(off.wallP50)
		r.Quantiles[pre+"/on/wall_p50_ns"] = int64(on.wallP50)
		r.Quantiles[pre+"/off/wall_total_ns"] = int64(off.wallTotal)
		r.Quantiles[pre+"/on/wall_total_ns"] = int64(on.wallTotal)
		r.Quantiles[pre+"/speedup_milli"] = int64(speedup * 1000)
		r.Quantiles[pre+"/overlap_permille"] = int64(overlap * 1000)
	}
	r.AddNote("real collective layer over %s loopback: N=%d ranks, P=%d channels, cores=%d, f64 segments",
		transportName, n, p, cores)
	r.AddNote("off = single-frame steps (WithChunkBytes -1); on = auto-sized chunk trains (adaptive controller)")
	r.AddNote("speedup = Σ off walls / Σ on walls over equal interleaved trials: iteration tails (GC of whole-segment frames) are real training cost")
	r.AddNote("overlap = share of decode-reduce time spent while wire traffic was still in flight (ring-step span reduce_ns/overlap_ns)")
	return r, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PipelineSweep runs the full TCP-loopback sweep (1KB → 154MB
// segments). Minutes of runtime at the large sizes, so it is not part
// of All(); reach it via `sparkerbench -only pipeline` or
// `make bench-compare`.
func PipelineSweep() (*Report, error) {
	return pipelineSweep(func() transport.Network { return transport.NewTCP() },
		"tcp", 4, 1, defaultPipelinePoints)
}
