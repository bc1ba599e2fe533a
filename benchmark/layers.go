package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"sparker/internal/blockmanager"
	"sparker/internal/collective"
	"sparker/internal/comm"
	"sparker/internal/core"
	"sparker/internal/eventlog"
	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/mllib"
	"sparker/internal/obsv"
	"sparker/internal/rdd"
	"sparker/internal/sched"
	"sparker/internal/serde"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// The traced run has two sources, both outside the engine: probes, which
// call each layer's public functions at the workload's shapes with a
// span around every call, and the counts the engine already publishes
// through ctx.Metrics() and ctx.MergedMetrics(), read before and after
// the traced steps.

const (
	// A probe repeats for probeShare of -seconds (200 ms of 20 s), and
	// at most probeMaxReps times.
	probeShare   = 0.01
	probeMaxReps = 2000
	// stepBlock is how many plain steps and how many traced steps run
	// before the other kind has its turn.
	stepBlock = 10
	// stepShare and observedShare are the shares of -seconds the traced
	// run spends on the plain cluster's steps and on the steps with
	// telemetry on; probes and the checked full run come on top.
	stepShare     = 0.4
	observedShare = 0.2
	// singleWorkerSteps is how many steps the one-executor baseline runs.
	singleWorkerSteps = 20
	// ringSegments is the segment count of the ring probes: parallelism
	// × executors, the layout core.Aggregate gives the ring.
	ringSegments = ringParallelism * numExecutors
	// streamFrames frames of streamFrameBytes make one stream probe.
	streamFrames     = 8
	streamFrameBytes = 2 << 20
)

// prober runs the probes of one traced run: calls into single layers
// at the shapes of the cluster's workload, each inside a span under
// parent.
type prober struct {
	t       *tracer
	parent  int
	c       *cluster
	budget  time.Duration
	minReps int
}

// call times fn as one span named name.
func (p *prober) call(name string, fn func()) { p.t.call(name, p.parent, fn) }

// repeat calls fn under the probe budget.
func (p *prober) repeat(fn func() error) error {
	start := time.Now()
	for n := 0; n < probeMaxReps && (n < p.minReps || time.Since(start) < p.budget); n++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// time repeats fn under the probe budget, each call inside a span
// named name.
func (p *prober) time(name string, fn func() error) error {
	return p.repeat(func() error {
		var err error
		p.call(name, func() { err = fn() })
		return err
	})
}

// batchFor is how many calls on n bytes go into one span, so that a
// span of a call on a few hundred bytes is not mostly clock reads.
func batchFor(n int) int { return max(1, (64<<10)/n) }

// mbps converts bytes moved in ms milliseconds to MB/s.
func mbps(bytes int, ms float64) float64 {
	if ms == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (ms / 1e3)
}

// ramp fills a vector with distinct non-zero values.
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.5 + float64(i%1024)
	}
	return v
}

// histDelta is the histogram name as observed between two registry
// snapshots. Min and Max stay those of the later snapshot.
func histDelta(after, before *metrics.Registry, name string) metrics.HistSnapshot {
	a, b := after.Histogram(name).Snapshot(), before.Histogram(name).Snapshot()
	a.Count -= b.Count
	a.Sum -= b.Sum
	for i := range a.Buckets {
		a.Buckets[i] -= b.Buckets[i]
	}
	return a
}

// pollSendQueue samples the comm sender queue depth once a millisecond
// until the returned stop is called, which returns the deepest seen.
// The gauge is instantaneous, so only sampling from outside can see a
// maximum.
func pollSendQueue(ctx *rdd.Context) (stop func() int64) {
	quit := make(chan struct{})
	done := make(chan int64)
	go func() {
		var deepest int64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- deepest
				return
			case <-tick.C:
				deepest = max(deepest, ctx.MergedMetrics().Gauge(metrics.GaugeSendQueue).Value())
			}
		}
	}()
	return func() int64 {
		close(quit)
		return <-done
	}
}

// runTraced measures the per-layer metrics of one workload and writes
// its spans to outDir/trace-<workload>.json.
func runTraced(w workload, o options) (*result, error) {
	r := newResult(w, o)
	t := newTracer(w.Name)
	root := t.start("traced-run", -1)

	points := w.points(o.seed)
	plain, err := setUp(w, points, rdd.Config{})
	if err != nil {
		return nil, err
	}
	defer plain.close()

	// Steps on the plain cluster, in alternating blocks of plain ones
	// (no span, no poller) and traced ones (span and queue poller).
	// Alternating cancels the drift of step time within one context.
	regBefore := plain.ctx.MergedMetrics()
	phaseBefore := plain.ctx.Metrics().Snapshot()
	stepsID := t.start("steps", root)
	var plainMs, tracedMs, allMs []float64
	oneStep := func(traced bool) {
		r.Attempted++
		var d time.Duration
		var err error
		if traced {
			t.call("mllib.step", stepsID, func() { d, err = plain.step() })
		} else {
			d, err = plain.step()
		}
		if err != nil {
			r.fail(fmt.Errorf("step %d: %w", r.Attempted, err))
			return
		}
		allMs = append(allMs, ms(d))
		if traced {
			tracedMs = append(tracedMs, ms(d))
		} else {
			plainMs = append(plainMs, ms(d))
		}
	}
	// The counts of work are read after the floor of steps, a fixed
	// number: ring wire bytes depend on the weights, which depend on how
	// many steps came before, and the length of the run does not repeat.
	var regCounted *metrics.Registry
	var countedSteps float64
	var queueMax int64
	deadline := time.Now().Add(o.share(stepShare))
	for len(tracedMs) < o.floors.tracedSteps || time.Now().Before(deadline) {
		for i := 0; i < stepBlock; i++ {
			oneStep(false)
		}
		stopPoll := pollSendQueue(plain.ctx)
		for i := 0; i < stepBlock; i++ {
			oneStep(true)
		}
		queueMax = max(queueMax, stopPoll())
		if regCounted == nil && r.Attempted >= 2*o.floors.tracedSteps {
			regCounted, countedSteps = plain.ctx.MergedMetrics(), float64(r.Attempted)
		}
	}
	t.end(stepsID)
	regAfter := plain.ctx.MergedMetrics()
	phaseAfter := plain.ctx.Metrics().Snapshot()
	if len(plainMs) == 0 || len(tracedMs) == 0 {
		return nil, fmt.Errorf("every step of one kind failed: %v", r.Errors)
	}
	// Every step on the plain context, spanned or not, is in the
	// registry and phase deltas.
	engineSteps := float64(len(allMs))
	r.Steps = len(tracedMs)
	r.ThirdsMs = thirds(tracedMs)

	_, _, relErr := checkedFullRuns(plain, r, referenceLosses(points, w.Features, fullRunIterations))

	p := &prober{t: t, parent: t.start("probes", root), c: plain, budget: o.share(probeShare), minReps: o.floors.probeReps}
	for _, probe := range []func() error{
		p.sched, p.rdd, p.serde, p.linalg, p.mllib, p.core,
		p.collectiveAndComm, p.transport, p.blockManager, p.singleWorker,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	t.end(p.parent)

	// Telemetry overhead: a second cluster with every sink on runs as
	// many steps as fit, after the plain one is gone (closing twice is
	// harmless), and is compared with the same first steps of the plain
	// cluster's life.
	plain.close()
	observedMs, err := observedSteps(t, root, w, points, o, len(allMs))
	if err != nil {
		return nil, err
	}
	t.end(root)

	p50 := func(name string) float64 { return median(t.durations(name)) }
	aggBytes := 8 * w.aggLen()
	segBytes := 8 * (w.aggLen() / ringSegments)
	rec := plain.ctx.Metrics()
	hist := func(name string) metrics.HistSnapshot { return histDelta(regAfter, regBefore, name) }
	countPerIter := func(h metrics.HistSnapshot) float64 { return float64(h.Sum) / countedSteps }
	counted := func(name string) metrics.HistSnapshot { return histDelta(regCounted, regBefore, name) }
	phaseMs := func(name string) float64 {
		return ms(phaseAfter[name]-phaseBefore[name]) / engineSteps
	}

	r.set("sched.stage_us_p50", p50("sched.stage")*1e3)
	r.set("sched.wait_ns_p50", float64(hist(metrics.HistSchedWaitNS).Quantile(0.5)))
	r.set("sched.task_ns_p50", float64(hist(metrics.HistSchedTaskNS).Quantile(0.5)))
	r.set("sched.spec_launched", float64(rec.Count(metrics.CounterSpecLaunched)))

	r.set("rdd.empty_job_us_p50", p50("rdd.empty_job")*1e3)
	r.set("rdd.result_dropped", float64(rec.Count(metrics.CounterResultDropped)))
	r.set("rdd.result_malformed", float64(rec.Count(metrics.CounterResultMalformed)))

	r.set("serde.encode_mbps", mbps(aggBytes*batchFor(aggBytes), p50("serde.encode")))
	r.set("serde.decode_mbps", mbps(aggBytes*batchFor(aggBytes), p50("serde.decode")))

	part0NNZ := 0
	for _, p := range points[:len(points)/numExecutors] {
		part0NNZ += len(p.Features.Indices)
	}
	r.set("linalg.csrgrad_ms_p50", p50("linalg.csrgrad"))
	r.set("linalg.csrgrad_mnnz_per_s", mbps(part0NNZ, p50("linalg.csrgrad")))
	r.set("linalg.add_assign_mbps", mbps(aggBytes*batchFor(aggBytes), p50("linalg.add_assign")))
	r.set("linalg.pack_ms", p50("linalg.pack"))

	r.set("mllib.step_ms_p50", median(tracedMs))
	r.set("mllib.step_ms_p90", quantile(tracedMs, 0.9))
	r.set("mllib.map_ms_p50", float64(hist(metrics.HistComputeMapNS).Quantile(0.5))/1e6)
	r.set("mllib.update_us_p50", p50("mllib.update")*1e3/float64(batchFor(8*w.Features)))
	r.set("mllib.single_worker_step_ms_p50", p50("mllib.single_worker_step"))
	r.set("mllib.iter_ms_drift_pct", driftPct(tracedMs))
	r.set("mllib.loss_rel_err", relErr)

	r.set("core.aggregate_ms_p50", p50("core.aggregate"))
	r.set("core.split_concat_us_p50", p50("core.split_concat")*1e3/float64(batchFor(aggBytes)))
	r.set("core.phase_compute_ms_per_iter", phaseMs(metrics.PhaseAggCompute))
	r.set("core.phase_reduce_ms_per_iter", phaseMs(metrics.PhaseAggReduce))
	r.set("core.ring_fallbacks", float64(rec.Count(metrics.CounterRingFallback)))
	r.set("core.elastic_retries", float64(rec.Count(metrics.CounterElasticRetry)))

	r.set("collective.reduce_scatter_ms_p50", p50("collective.reduce_scatter"))
	r.set("collective.allgather_ms_p50", p50("collective.allgather"))
	r.set("collective.tree_reduce_ms_p50", p50("collective.tree_reduce"))
	r.set("collective.encode_mbps", mbps(segBytes*batchFor(segBytes), p50("collective.encode")))
	r.set("collective.decode_reduce_mbps", mbps(segBytes*batchFor(segBytes), p50("collective.decode_reduce")))
	stepNS := hist(metrics.HistRingStepNS)
	r.set("collective.step_us_p50", float64(stepNS.Quantile(0.5))/1e3)
	r.set("collective.step_us_p99", float64(stepNS.Quantile(0.99))/1e3)
	r.set("collective.chunk_reduce_us_p50", float64(hist(metrics.HistRingChunkNS).Quantile(0.5))/1e3)
	wire := countPerIter(counted(metrics.HistRingStepBytes))
	raw := wire
	// Only steps sent through a codec observe raw bytes; with none
	// active the wire bytes are the raw bytes.
	if rawHist := counted(metrics.HistRingStepRawBytes); rawHist.Count > 0 {
		raw = countPerIter(rawHist)
	}
	r.set("collective.ring_steps_per_iter", float64(counted(metrics.HistRingStepNS).Count)/countedSteps)
	r.set("collective.wire_bytes_per_iter", wire)
	r.set("collective.raw_bytes_per_iter", raw)

	r.set("comm.pingpong_us_p50", p50("comm.pingpong")*1e3)
	r.set("comm.segment_send_ms_p50", p50("comm.segment_send"))
	r.set("comm.send_queue_max", float64(queueMax))

	r.set("transport.rtt_us_p50", p50("transport.rtt")*1e3)
	r.set("transport.stream_mbps", mbps(streamFrames*streamFrameBytes, p50("transport.stream")))
	r.set("transport.dial_us_p50", p50("transport.dial")*1e3)

	r.set("blockmanager.put_mbps", mbps(aggBytes, p50("blockmanager.put")))
	r.set("blockmanager.remote_get_mbps", mbps(aggBytes, p50("blockmanager.remote_get")))
	r.set("blockmanager.put_bytes_per_iter", countPerIter(counted(metrics.HistBlockPutBytes)))
	r.set("blockmanager.get_bytes_per_iter", countPerIter(counted(metrics.HistBlockGetBytes)))

	r.set("obsv.overhead_pct", (median(observedMs)/median(allMs[:len(observedMs)])-1)*100)
	r.set("bench.trace_overhead_pct", (median(tracedMs)/median(plainMs)-1)*100)
	// The blocking path of a step, as far as probes can see it from
	// outside: dispatch, the map, the reduction, the driver update.
	attributed := p50("rdd.empty_job") + r.Metrics["mllib.map_ms_p50"].Value + p50("core.aggregate") + p50("mllib.update")/float64(batchFor(8*w.Features))
	r.set("bench.attributed_ms", attributed)
	r.set("bench.unattributed_pct", (1-attributed/median(tracedMs))*100)

	r.SelfMs = t.selfMs()
	r.finish()
	if err := t.writeChrome(filepath.Join(o.outDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *prober) sched() error {
	s, err := sched.New(sched.Config{NumExecutors: numExecutors, CoresPerExecutor: 1})
	if err != nil {
		return fmt.Errorf("sched probe: %w", err)
	}
	defer s.Close()
	var job int64
	return p.time("sched.stage", func() error {
		job++
		h, err := s.Submit(sched.StageSpec{JobID: job, Tasks: numExecutors, Launch: func(task, attempt, _ int) error {
			s.Deliver(job, task, attempt, nil, nil)
			return nil
		}})
		if err != nil {
			return err
		}
		_, err = h.Wait()
		return err
	})
}

func (p *prober) rdd() error {
	return p.time("rdd.empty_job", func() error {
		_, err := p.c.ctx.RunOnAllExecutors(func(*rdd.ExecContext, int, int) ([]byte, error) { return nil, nil })
		return err
	})
}

func (p *prober) serde() error {
	v := ramp(p.c.w.aggLen())
	batch := batchFor(8 * len(v))
	var wire []byte
	if err := p.time("serde.encode", func() (err error) {
		for i := 0; i < batch && err == nil; i++ {
			wire, err = serde.Encode(wire[:0], v)
		}
		return err
	}); err != nil {
		return err
	}
	return p.time("serde.decode", func() (err error) {
		for i := 0; i < batch && err == nil; i++ {
			_, _, err = serde.Decode(wire)
		}
		return err
	})
}

func (p *prober) linalg() error {
	dim, n := p.c.w.Features, len(p.c.points)
	var part0 *linalg.CSRMatrix
	for part := numExecutors - 1; part >= 0; part-- {
		var err error
		p.call("linalg.pack", func() {
			part0, err = mllib.PackPoints(part, dim, p.c.points[part*n/numExecutors:(part+1)*n/numExecutors])
		})
		if err != nil {
			return err
		}
	}
	wts, cum := make([]float64, dim), make([]float64, dim)
	if err := p.time("linalg.csrgrad", func() error {
		linalg.CSRGrad(linalg.CSRLogistic, part0, nil, wts, cum, 1)
		return nil
	}); err != nil {
		return err
	}
	dst, src := ramp(p.c.w.aggLen()), ramp(p.c.w.aggLen())
	batch := batchFor(8 * len(dst))
	return p.time("linalg.add_assign", func() error {
		for i := 0; i < batch; i++ {
			linalg.ParallelAddAssign(dst, src, 1)
		}
		return nil
	})
}

func (p *prober) mllib() error {
	wts, grad := ramp(p.c.w.Features), ramp(p.c.w.Features)
	batch := batchFor(8 * len(wts))
	return p.time("mllib.update", func() error {
		for i := 0; i < batch; i++ {
			mllib.SimpleUpdater{}.Update(wts, grad, 1, 1, 0)
		}
		return nil
	})
}

// core times core.Aggregate with the map emptied out: one element
// per partition and a seqOp that adds a constant vector, so what is
// left is the reduction of the workload's strategy (the shape of the
// paper's Figures 12–16).
func (p *prober) core() error {
	n := p.c.w.aggLen()
	constant := ramp(n)
	ops := collective.F64Ops()
	fns := core.AggFuncs[int, []float64, []float64]{
		Zero:     func() []float64 { return make([]float64, n) },
		SeqOp:    func(acc []float64, _ int) []float64 { return core.AddF64(acc, constant) },
		MergeOp:  core.AddF64,
		SplitOp:  core.SplitSliceCopy[float64],
		ReduceOp: core.AddF64,
		ConcatOp: core.ConcatSlices[float64],
		Ops:      &ops,
	}
	strategy, err := p.c.w.Strategy.CoreStrategy()
	if err != nil {
		return err
	}
	parts := rdd.FromSlice(p.c.ctx, make([]int, numExecutors), numExecutors)
	var sum []float64
	if err := p.time("core.aggregate", func() (err error) {
		sum, err = core.Aggregate(context.Background(), parts, fns,
			core.WithStrategy(strategy), core.WithDepth(treeDepth), core.WithParallelism(ringParallelism))
		return err
	}); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if len(sum) != n || sum[n-1] != numExecutors*constant[n-1] {
		return fmt.Errorf("core probe: reduction-only aggregate returned a wrong sum")
	}
	batch := batchFor(8 * n)
	segs := make([][]float64, ringSegments)
	return p.time("core.split_concat", func() error {
		for i := 0; i < batch; i++ {
			for s := range segs {
				segs[s] = core.SplitSlice(constant, s, ringSegments)
			}
			core.ConcatSlices(segs)
		}
		return nil
	})
}

// onRanks runs fn on every endpoint at once and returns the first error.
func onRanks(eps []*comm.Endpoint, fn func(rank int, e *comm.Endpoint) error) error {
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for rank, e := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = fn(rank, e)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// echoOnce receives one message on recv and sends it back on send.
func echoOnce(recv func() ([]byte, error), send func([]byte) error) <-chan error {
	done := make(chan error, 1)
	go func() {
		b, err := recv()
		if err == nil {
			err = send(b)
		}
		done <- err
	}()
	return done
}

// collectiveAndComm builds a ring of numExecutors endpoints on a
// fresh network of the workload's kind and times the collectives and
// the endpoint sends on it.
func (p *prober) collectiveAndComm() error {
	net := p.c.w.network()
	defer net.Close()
	eps, err := comm.NewGroup(net, "probe", numExecutors)
	if err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}
	defer comm.CloseGroup(eps)
	for _, e := range eps {
		if err := e.ConnectRing(ringParallelism); err != nil {
			return fmt.Errorf("collective probe: %w", err)
		}
	}
	ctx := collective.WithCores(context.Background(), 1)
	ops := collective.F64Ops()
	base := ramp(p.c.w.aggLen())

	// Reduce-scatter mutates its segments, so every rank gets fresh
	// copies outside the span.
	owned := make([]map[int][]float64, numExecutors)
	if err := p.repeat(func() error {
		segs := make([][][]float64, numExecutors)
		for rank := range segs {
			segs[rank] = make([][]float64, ringSegments)
			for s := range segs[rank] {
				segs[rank][s] = core.SplitSliceCopy(base, s, ringSegments)
			}
		}
		var err error
		p.call("collective.reduce_scatter", func() {
			err = onRanks(eps, func(rank int, e *comm.Endpoint) error {
				var err error
				owned[rank], err = collective.RingReduceScatter(ctx, e, segs[rank], ringParallelism, ops)
				return err
			})
		})
		return err
	}); err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}
	if err := p.time("collective.allgather", func() error {
		return onRanks(eps, func(rank int, e *comm.Endpoint) error {
			_, err := collective.RingAllGather(ctx, e, owned[rank], ringParallelism, ops)
			return err
		})
	}); err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}
	// The root's value is reduced into, so again fresh copies.
	if err := p.repeat(func() error {
		values := make([][]float64, numExecutors)
		for rank := range values {
			values[rank] = slices.Clone(base)
		}
		var err error
		p.call("collective.tree_reduce", func() {
			err = onRanks(eps, func(rank int, e *comm.Endpoint) error {
				_, err := collective.TreeReduce(ctx, e, 0, values[rank], ops)
				return err
			})
		})
		return err
	}); err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}

	seg := core.SplitSliceCopy(base, 0, ringSegments)
	acc := make([]float64, len(seg))
	batch := batchFor(8 * len(seg))
	var wire []byte
	if err := p.time("collective.encode", func() error {
		for i := 0; i < batch; i++ {
			wire = ops.EncodeTo(wire, seg)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := p.time("collective.decode_reduce", func() (err error) {
		for i := 0; i < batch && err == nil; i++ {
			acc, err = ops.DecodeReduceInto(acc, wire)
		}
		return err
	}); err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}

	// comm: a 64 B round trip between ranks 0 and 1, then one ring
	// segment one way. Send hands the buffer over, so each send gets
	// its own.
	if err := p.time("comm.pingpong", func() error {
		echo := echoOnce(
			func() ([]byte, error) { return eps[1].RecvFrom(0, 0) },
			func(b []byte) error { return eps[1].SendTo(0, 0, b) })
		err := eps[0].SendTo(1, 0, make([]byte, 64))
		if err == nil {
			_, err = eps[0].RecvFrom(1, 0)
		}
		return errors.Join(err, <-echo)
	}); err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}
	if err := p.repeat(func() error {
		buf := make([]byte, len(wire))
		var err error
		p.call("comm.segment_send", func() {
			sent := make(chan error, 1)
			go func() { sent <- eps[0].SendTo(1, 0, buf) }()
			_, err = eps[1].RecvFrom(0, 0)
			err = errors.Join(err, <-sent)
		})
		return err
	}); err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}
	return nil
}

// transport times a raw connection of the workload's network kind:
// dialling, a 64 B round trip, and one-way 2 MiB frames.
func (p *prober) transport() error {
	net := p.c.w.network()
	defer net.Close()
	l, err := net.Listen("probe/raw")
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn)
	go func() {
		defer close(accepted)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	// Every repeat dials a new pair and drops the one before; the last
	// pair carries the round trips and the stream.
	var client, server transport.Conn
	closePair := func() {
		if client != nil {
			client.Close()
			server.Close()
		}
	}
	defer func() { closePair() }()
	if err := p.repeat(func() error {
		closePair()
		var err error
		p.call("transport.dial", func() { client, err = net.Dial("probe/raw") })
		if err != nil {
			client = nil
			return err
		}
		var ok bool
		if server, ok = <-accepted; !ok {
			client.Close()
			client = nil
			return fmt.Errorf("listener closed")
		}
		return nil
	}); err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}

	if err := p.time("transport.rtt", func() error {
		echo := echoOnce(server.Recv, server.Send)
		err := client.Send(make([]byte, 64))
		if err == nil {
			_, err = client.Recv()
		}
		return errors.Join(err, <-echo)
	}); err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	if err := p.repeat(func() error {
		frames := make([][]byte, streamFrames)
		for i := range frames {
			frames[i] = make([]byte, streamFrameBytes)
		}
		var err error
		p.call("transport.stream", func() {
			sent := make(chan error, 1)
			go func() {
				for _, f := range frames {
					if err := client.Send(f); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			for range frames {
				if _, err = server.Recv(); err != nil {
					break
				}
			}
			err = errors.Join(err, <-sent)
		})
		return err
	}); err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	return nil
}

func (p *prober) blockManager() error {
	net := p.c.w.network()
	defer net.Close()
	master, err := blockmanager.NewMaster(net)
	if err != nil {
		return fmt.Errorf("blockmanager probe: %w", err)
	}
	defer master.Close()
	owner, err := blockmanager.NewStore(net, "probe/owner")
	if err != nil {
		return fmt.Errorf("blockmanager probe: %w", err)
	}
	defer owner.Close()
	reader, err := blockmanager.NewStore(net, "probe/reader")
	if err != nil {
		return fmt.Errorf("blockmanager probe: %w", err)
	}
	defer reader.Close()
	payload := make([]byte, 8*p.c.w.aggLen())
	n := 0
	return p.repeat(func() error {
		n++
		id := fmt.Sprintf("probe/%d", n)
		var err error
		p.call("blockmanager.put", func() { err = owner.Put(id, payload) })
		if err != nil {
			return fmt.Errorf("blockmanager probe: %w", err)
		}
		var got []byte
		p.call("blockmanager.remote_get", func() { got, err = reader.Get(id) })
		if err != nil {
			return fmt.Errorf("blockmanager probe: %w", err)
		}
		if len(got) != len(payload) {
			return fmt.Errorf("blockmanager probe: fetched %d bytes of %d", len(got), len(payload))
		}
		owner.Delete(id)
		return nil
	})
}

// observedSteps sets up a cluster with every telemetry sink on and
// returns the wall clock of its steps: at most limit of them, for the
// observed share of -seconds.
func observedSteps(t *tracer, parent int, w workload, points []mllib.LabeledPoint, o options, limit int) ([]float64, error) {
	id := t.start("obsv.steps", parent)
	defer t.end(id)
	logger := eventlog.New(io.Discard)
	exp := trace.NewAsyncExporter(trace.NewLogExporter(logger), 0)
	defer exp.Close()
	obs := obsv.New(obsv.Config{BundleDir: filepath.Join(o.outDir, "bundles")})
	defer obs.Close()
	observed, err := setUp(w, points, rdd.Config{EventLog: logger, Tracer: trace.New(exp), Obsv: obs})
	if err != nil {
		return nil, fmt.Errorf("cluster with telemetry on: %w", err)
	}
	defer observed.close()
	var out []float64
	deadline := time.Now().Add(o.share(observedShare))
	for len(out) < limit && (len(out) < o.floors.tracedSteps || time.Now().Before(deadline)) {
		d, err := observed.step()
		if err != nil {
			return nil, fmt.Errorf("step with telemetry on: %w", err)
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// singleWorker is the plain baseline: the same steps on one
// executor with one core. No scaling ratio is derived from it, because
// the standard geometry's four executors share the host's cores.
func (p *prober) singleWorker() error {
	single, err := setUp(p.c.w, p.c.points, rdd.Config{NumExecutors: 1})
	if err != nil {
		return fmt.Errorf("single-worker baseline: %w", err)
	}
	defer single.close()
	for i := 0; i < singleWorkerSteps; i++ {
		var err error
		p.call("mllib.single_worker_step", func() { _, err = single.step() })
		if err != nil {
			return fmt.Errorf("single-worker baseline: %w", err)
		}
	}
	return nil
}
