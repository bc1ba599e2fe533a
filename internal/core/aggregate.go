package core

// Aggregate is the unified aggregation entry point: one call that
// selects the reduction strategy (tree, tree+IMM, split, allreduce),
// carries per-step communication deadlines into the ring collectives,
// and — when a ring collective fails with a classified peer error —
// automatically degrades to a tree-shaped gather over the surviving
// block-manager paths. The legacy entry points (TreeAggregate,
// TreeAggregateIMM, SplitAggregate, SplitAllReduce, AutoSplitAggregate)
// are thin deprecated wrappers over it.
//
// Fault model. The ring stage runs with MaxAttempts=1: resubmitting one
// ring member alone cannot succeed, so the classified failure
// (comm.ErrPeerTimeout, comm.ErrPeerDown) is surfaced promptly instead
// of burning the retry budget. The ring reduces in place in each
// executor's resident aggregator (when SplitOp returns views), so a
// failed ring leaves the aggregators partly reduced: the fallback drops
// them, re-runs the IMM stage, has each executor republish its fresh
// aggregator as a block, and the driver performs the same serial merge
// TreeAggregateIMM would — correct whenever the task transport and
// block manager survive the ring fault (e.g. a severed or silent PDR
// link). The failure path pays for the recompute; the healthy path
// keeps no pristine copy. Degradations are observable: the metrics
// counters metrics.CounterPeerFailure and metrics.CounterRingFallback
// are bumped and a marker event is written to the history log.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sparker/internal/collective"
	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/sched"
	"sparker/internal/serde"
	"sparker/internal/trace"
)

// ErrMembershipChanged classifies a collective failure whose cause was
// a membership reconfiguration (an executor died or left mid-ring and
// the driver installed a new epoch). Aggregate retries such failures
// once, whole, against the new epoch — the surviving-path fallback is
// only sound when the executor set is unchanged, since a dead member's
// IMM aggregator is gone. Aliases rdd.ErrMembershipChanged so the
// classification survives the task result frame (the wire codec maps
// the sentinel to a status byte and re-attaches it driver-side).
var ErrMembershipChanged = rdd.ErrMembershipChanged

// elasticRetryWait bounds how long a classified ring failure waits for
// the suspected membership reconfiguration to install before concluding
// the executor set is stable (and degrading to the tree fallback
// instead). Ctrl-connection eviction is near-instant, so churn-caused
// failures see the new epoch well inside this window.
const elasticRetryWait = 500 * time.Millisecond

// Strategy selects the reduction an Aggregate call runs.
type Strategy int

const (
	// StrategySplit is Sparker's split aggregation over the parallel
	// directed ring (§3.1) — the default.
	StrategySplit Strategy = iota
	// StrategyTree is vanilla Spark treeAggregate: combiner stages and a
	// serial driver merge, every hop serialized.
	StrategyTree
	// StrategyIMM is tree aggregation with in-memory merge: one
	// serialized aggregator per executor, serial driver merge (§3.2).
	StrategyIMM
	// StrategyAllReduce is split aggregation ending in an allgather, so
	// the reduced aggregate stays resident on every executor (§6).
	StrategyAllReduce
	// StrategyAuto picks a strategy from cluster geometry: StrategyIMM on
	// a single executor (a ring of one reduces nothing), StrategySplit
	// otherwise.
	StrategyAuto
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategySplit:
		return "split"
	case StrategyTree:
		return "tree"
	case StrategyIMM:
		return "imm"
	case StrategyAllReduce:
		return "allreduce"
	case StrategyAuto:
		return "auto"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DefaultStepDeadline bounds each ring collective step when the caller
// does not choose a deadline. Generous enough for any healthy step, yet
// it converts a silent peer into a classified error instead of a hang.
const DefaultStepDeadline = 60 * time.Second

// AggOptions tunes Aggregate. Build it with the With* functional
// options; the zero value of each field selects the documented default.
type AggOptions struct {
	// Strategy picks the reduction (default StrategySplit).
	Strategy Strategy
	// Depth is the tree depth for StrategyTree (default 2).
	Depth int
	// Parallelism is the PDR channel count for the ring strategies
	// (default: the context's RingParallelism).
	Parallelism int
	// StepDeadline bounds each ring collective step. Zero selects
	// DefaultStepDeadline; a negative value disables the deadline
	// (restoring the hang-on-silent-peer behaviour of the seed).
	StepDeadline time.Duration
	// NoFallback disables the automatic ring→tree degradation on a
	// classified peer failure, surfacing the error instead.
	NoFallback bool
	// KeepKey, for StrategyAllReduce, stores the reduced result in every
	// executor's mutable object manager under this key.
	KeepKey string
	// ChunkBytes sets the pipelined ring collectives' chunk size. Zero
	// (the default) lets the collective layer pick — SPARKER_CHUNK_BYTES
	// if set, else an adaptive size seeded from the step histograms; a
	// negative value disables chunking (legacy single-frame steps).
	ChunkBytes int
	// Tenant names the scheduler fair-share account charged for the
	// aggregation's stages (empty: the default tenant). Multi-tenant
	// drivers tag each client's training loop so slot-time is split by
	// the configured weights.
	Tenant string
	// Compress selects a wire codec for the ring stage (default: none,
	// which is byte-identical to the pre-codec wire format). Requires an
	// AggFuncs.Ops override whose segment type exposes a float64 view
	// (e.g. collective.F64Ops). When Compress.ErrorFeedback is set with a
	// nil State, each executor keeps one residual store per aggregation
	// shape in its mutable object manager so residuals persist across
	// iterations of an optimizer loop.
	Compress collective.Compression
}

// AggOption mutates AggOptions.
type AggOption func(*AggOptions)

// WithStrategy selects the reduction strategy.
func WithStrategy(s Strategy) AggOption {
	return func(o *AggOptions) { o.Strategy = s }
}

// WithDepth sets the tree depth for StrategyTree. Non-positive values
// select the default (2).
func WithDepth(depth int) AggOption {
	return func(o *AggOptions) { o.Depth = depth }
}

// WithParallelism sets the PDR channel count for the ring strategies.
// Zero selects the context's RingParallelism; negative values are
// rejected by Aggregate.
func WithParallelism(p int) AggOption {
	return func(o *AggOptions) { o.Parallelism = p }
}

// WithDeadline sets the per-step communication deadline for the ring
// strategies. Zero selects DefaultStepDeadline; negative disables.
func WithDeadline(d time.Duration) AggOption {
	return func(o *AggOptions) { o.StepDeadline = d }
}

// WithFallback enables or disables the automatic ring→tree fallback on
// a classified peer failure (enabled by default).
func WithFallback(enabled bool) AggOption {
	return func(o *AggOptions) { o.NoFallback = !enabled }
}

// WithKeepKey keeps the StrategyAllReduce result resident on every
// executor under key.
func WithKeepKey(key string) AggOption {
	return func(o *AggOptions) { o.KeepKey = key }
}

// WithChunkBytes fixes the pipelined ring chunk size (bytes) for this
// aggregation. Zero defers to SPARKER_CHUNK_BYTES or the adaptive
// controller; negative disables chunking.
func WithChunkBytes(n int) AggOption {
	return func(o *AggOptions) { o.ChunkBytes = n }
}

// WithTenant charges the aggregation's stages to the named scheduler
// fair-share tenant (see sched.TenantConfig). Empty restores the
// default account.
func WithTenant(name string) AggOption {
	return func(o *AggOptions) { o.Tenant = name }
}

// WithCompression selects a wire codec for the ring stage. opts carries
// the codec parameters (top-k ratio, error feedback, optional explicit
// residual state); its Codec field is overwritten by codec so the
// common call sites read WithCompression(collective.CodecFP16,
// collective.Compression{}). CodecNone restores the exact dense wire
// format.
func WithCompression(codec collective.Codec, opts collective.Compression) AggOption {
	return func(o *AggOptions) {
		opts.Codec = codec
		o.Compress = opts
	}
}

// AggFuncs carries the user callbacks of the split aggregation
// interface (Figure 6). T is the element type, U the aggregator, V the
// aggregator segment; U and V must be serde-encodable where they cross
// executor boundaries.
type AggFuncs[T, U, V any] struct {
	// Zero returns a fresh aggregator (must not alias previous calls).
	Zero func() U
	// SeqOp folds one element into an aggregator.
	SeqOp func(U, T) U
	// MergeOp merges two aggregators (IMM intra-executor merge, driver
	// merge of the tree strategies and of the fallback gather).
	MergeOp func(U, U) U
	// SplitOp returns segment i of n from an aggregator; all ranks must
	// agree on the segmentation, and SplitOp(u, 0, 1) must be the whole
	// aggregator viewed as a segment (how the tree strategies and the
	// fallback convert U to V). Segments may alias u (SplitSlice): the
	// ring then reduces in place in the resident aggregator, which no
	// one reads afterwards. Copies (SplitSliceCopy) work as well and cost
	// one pass over the aggregator.
	SplitOp func(u U, i, n int) V
	// ReduceOp merges two aggregator segments.
	ReduceOp func(V, V) V
	// ConcatOp reassembles the ordered reduced segments. It must be plain
	// concatenation when Ops has a fixed stride: the driver then decodes
	// the gathered segments straight into one MakeSegment'ed vector and
	// does not call it.
	ConcatOp func([]V) V
	// Ops, when non-nil, replaces the generic serde-backed collective
	// operations for the ring stage. Supplying ops with the chunked fast
	// path (fixed stride, Fuse/Encoded hooks — e.g. collective.F64Ops for
	// []float64 segments) enables zero-decode chunk reduction and is a
	// prerequisite for wire compression (AggOptions.Compress).
	Ops *collective.Ops[V]
	// Recycle, when non-nil, receives every aggregator the engine made
	// with Zero and is done with — a partition's accumulator once merged,
	// an executor's resident aggregator once its segments are encoded or
	// concatenated — so Zero can hand the memory out again. Supply it
	// only if nothing SplitOp, ConcatOp or the serde encoding of U
	// produced can still alias the aggregator at that point (ConcatSlices
	// copies; identity callbacks do not qualify). Aggregators that reach
	// the caller (the tree strategies' result) are never recycled.
	Recycle func(U)
}

// recycle hands u to Recycle when the caller supplied one.
func (f *AggFuncs[T, U, V]) recycle(u U) {
	if f.Recycle != nil {
		f.Recycle(u)
	}
}

func (f *AggFuncs[T, U, V]) validate(s Strategy) error {
	if f.Zero == nil || f.SeqOp == nil || f.MergeOp == nil {
		return fmt.Errorf("core: Aggregate(%v) requires Zero, SeqOp and MergeOp", s)
	}
	if f.SplitOp == nil {
		return fmt.Errorf("core: Aggregate(%v) requires SplitOp", s)
	}
	if s == StrategySplit || s == StrategyAllReduce {
		if f.ReduceOp == nil || f.ConcatOp == nil {
			return fmt.Errorf("core: Aggregate(%v) requires ReduceOp and ConcatOp", s)
		}
	}
	return nil
}

// Aggregate reduces r with fns under the chosen options and returns the
// final aggregate as a segment-typed value (for the tree strategies and
// the fallback path this is SplitOp(result, 0, 1)).
//
// ctx bounds the communication of the ring strategies: it is the parent
// of every per-step deadline context, so cancelling it aborts in-flight
// collectives with a classified error. It does not preempt executor
// compute.
func Aggregate[T, U, V any](ctx context.Context, r *rdd.RDD[T], fns AggFuncs[T, U, V], opts ...AggOption) (res V, retErr error) {
	var zv V
	rc := r.Context()
	o := AggOptions{}
	for _, f := range opts {
		f(&o)
	}
	if o.Depth <= 0 {
		o.Depth = 2
	}
	if o.Parallelism == 0 {
		o.Parallelism = rc.RingParallelism()
	}
	if o.Parallelism < 1 {
		return zv, fmt.Errorf("core: Parallelism must be >= 1, got %d", o.Parallelism)
	}
	if o.StepDeadline == 0 {
		o.StepDeadline = DefaultStepDeadline
	}
	strategy := o.Strategy
	if strategy == StrategyAuto {
		if rc.NumLiveExecutors() == 1 {
			strategy = StrategyIMM
		} else {
			strategy = StrategySplit
		}
	}
	if err := fns.validate(strategy); err != nil {
		return zv, err
	}
	if o.Compress.Codec != collective.CodecNone && fns.Ops == nil {
		return zv, fmt.Errorf("core: WithCompression(%v) requires AggFuncs.Ops with a float64 view (e.g. collective.F64Ops)", o.Compress.Codec)
	}

	// One "aggregate" span per call, parenting every stage it submits
	// (and the fallback span on degradation). Parent comes from ctx so
	// mllib iteration spans stitch above it.
	tr := rc.Tracer()
	_, parentSC := trace.FromContext(ctx)
	span := tr.StartSpan("aggregate", parentSC)
	span.SetAttr("strategy", strategy.String())
	defer func() { span.EndErr(retErr) }()
	ctx = trace.WithSpan(ctx, span)

	switch strategy {
	case StrategyTree:
		u, err := rdd.TreeAggregate(r, fns.Zero, fns.SeqOp, fns.MergeOp, rdd.AggregateOptions{Depth: o.Depth})
		if err != nil {
			return zv, err
		}
		return fns.SplitOp(u, 0, 1), nil
	case StrategyIMM:
		u, err := treeAggregateIMM(ctx, r, o.Tenant, &fns)
		if err != nil {
			return zv, err
		}
		return fns.SplitOp(u, 0, 1), nil
	case StrategySplit:
		return ringAggregateElastic(ctx, r, fns, o, false)
	case StrategyAllReduce:
		return ringAggregateElastic(ctx, r, fns, o, true)
	default:
		return zv, fmt.Errorf("core: unknown strategy %v", o.Strategy)
	}
}

// isPeerFailure reports whether err is a classified collective failure
// the recovery paths can act on: a peer stopped answering
// (comm.ErrPeerTimeout), its transport died (comm.ErrPeerDown), or the
// scheduler lost the executor outright (sched.ErrExecutorLost).
func isPeerFailure(err error) bool {
	return errors.Is(err, comm.ErrPeerTimeout) || errors.Is(err, comm.ErrPeerDown) ||
		errors.Is(err, sched.ErrExecutorLost)
}

// maxElasticRetries bounds how many times a churn-broken collective is
// re-run whole. Each retry requires a fresh ErrMembershipChanged
// classification — which itself requires an observed epoch change — so
// the loop is bounded by actual churn events; the cap guards against a
// cluster reconfiguring faster than it can complete one collective.
const maxElasticRetries = 3

// ringAggregateElastic wraps ringAggregate with the elastic retry: a
// collective that failed because the membership epoch moved underneath
// it is re-run whole (fresh op id, fresh IMM stage, the new epoch's
// ring) against the reconfigured cluster, up to maxElasticRetries
// times — back-to-back churn (an eviction immediately followed by a
// replacement join) can break two attempts in a row. Any failure with
// stable membership surfaces normally.
func ringAggregateElastic[T, U, V any](ctx context.Context, r *rdd.RDD[T], fns AggFuncs[T, U, V], o AggOptions, allGather bool) (V, error) {
	rc := r.Context()
	res, err := ringAggregate(ctx, r, fns, o, allGather)
	for retry := 0; retry < maxElasticRetries && err != nil && errors.Is(err, ErrMembershipChanged); retry++ {
		rc.RecordMarker(metrics.CounterElasticRetry,
			fmt.Sprintf("retrying collective against epoch %d: %v", rc.MembershipEpoch(), err))
		res, err = ringAggregate(ctx, r, fns, o, allGather)
	}
	return res, err
}

// ringAggregate runs the split (and, with allGather, allreduce)
// strategy: IMM stage, then a statically placed ring stage, then either
// the driver gather (split) or the rank-0 copy (allreduce). On a
// classified ring failure with fallback enabled it degrades to
// fallbackGather.
func ringAggregate[T, U, V any](ctx context.Context, r *rdd.RDD[T], fns AggFuncs[T, U, V], o AggOptions, allGather bool) (V, error) {
	var zv V
	rc := r.Context()
	kind := "split"
	if allGather {
		kind = "allreduce"
	}
	opID := rc.NewOpID()
	epoch0 := rc.MembershipEpoch()
	prefix := fmt.Sprintf("%s/%d/", kind, opID)
	key := prefix + "agg"

	tr, aggSC := trace.FromContext(ctx)

	// Stage 1: reduced-result stage (IMM) → one aggregator per executor.
	start := time.Now()
	held, err := runIMMStage(r, key, aggSC, o.Tenant, &fns)
	if err != nil {
		return zv, err
	}
	rc.RecordPhase(metrics.PhaseAggCompute, time.Since(start), "IMM reduced-result stage")

	start = time.Now()
	defer func() { rc.RecordPhase(metrics.PhaseAggReduce, time.Since(start), kind+" reduce stage") }()

	// Stage 2: SpawnRDD — exactly one task per executor, statically
	// placed, running the ring collective with per-step deadlines.
	out, ringErr := runRingStage(ctx, rc, opID, key, held, fns, o, allGather)
	if ringErr == nil {
		// Every ring task took its executor's aggregator: nothing is
		// left behind, so the healthy path submits no cleanup stage.
		return out, nil
	}
	// Failure paths only: ring tasks that never ran still hold their
	// aggregator, and the fallback leaves its own behind.
	defer cleanupIMM(rc, prefix)
	if errors.Is(ringErr, ErrMembershipChanged) {
		// The stage itself detected the churn (stale ring geometry).
		// Executors swap endpoints before the driver installs the epoch,
		// so wait briefly for the install — a retry planned against the
		// still-stale view would fail the same way.
		rc.AwaitReconfigured(epoch0, elasticRetryWait)
		return zv, ringErr
	}
	// comm.ErrClosed from a ring task means the task's collective
	// endpoint was closed under it — which during churn is exactly the
	// atomic endpoint swap of a reconfiguration. It is not a peer
	// failure (the fallback would be pointless on a closed endpoint),
	// but it is retry-eligible when the epoch confirms the churn.
	if !isPeerFailure(ringErr) && !errors.Is(ringErr, comm.ErrClosed) {
		return zv, ringErr
	}
	// Classified peer failure. If the membership epoch moved (or moves
	// within the grace window — ctrl-connection eviction is racing this
	// very error), the failure was churn: the surviving-path fallback is
	// unsound (the departed member's IMM aggregator is gone), so classify
	// for the whole-collective retry against the new epoch instead.
	if rc.AwaitReconfigured(epoch0, elasticRetryWait) {
		return zv, fmt.Errorf("core: %s ring failed across epochs %d->%d: %v: %w",
			kind, epoch0, rc.MembershipEpoch(), ringErr, ErrMembershipChanged)
	}
	if o.NoFallback || errors.Is(ringErr, comm.ErrClosed) {
		// Stable epoch: a closed endpoint here is a genuine local
		// shutdown, not churn — surface it rather than degrade.
		return zv, ringErr
	}

	// Ring→tree degradation: the ring tasks took the resident
	// aggregators and reduced into them, so recompute them with a second
	// IMM stage (under its own key — a ring task that never ran still
	// holds the first run's), then gather them over the block manager
	// and merge serially like TreeAggregateIMM — survives a dead PDR
	// link.
	rc.RecordMarker(metrics.CounterPeerFailure, ringErr.Error())
	rc.RecordMarker(metrics.CounterRingFallback,
		fmt.Sprintf("%s aggregation degraded to tree gather: %v", kind, ringErr))
	// The degradation itself is a span: its duration is the measured
	// recovery cost and its attrs carry the classified cause — the
	// trace-level view the chaos suites assert on.
	fb := tr.StartSpan("ring-fallback", aggSC)
	fb.SetAttr("strategy", kind)
	fb.SetAttr("cause", ringErr.Error())
	acc, err := fallbackGather(r, prefix+"fallback", aggSC, o.Tenant, &fns)
	if err != nil {
		wrapped := fmt.Errorf("core: tree fallback after ring failure (%v): %w", ringErr, err)
		fb.EndErr(wrapped)
		return zv, wrapped
	}
	result := fns.SplitOp(acc, 0, 1)
	if allGather && o.KeepKey != "" {
		if err := replicateResult(rc, o.KeepKey, result); err != nil {
			wrapped := fmt.Errorf("core: tree fallback after ring failure (%v): %w", ringErr, err)
			fb.EndErr(wrapped)
			return zv, wrapped
		}
	}
	fb.SetAttr("recovered", "true")
	fb.End()
	return result, nil
}

// runRingStage submits the collective stage: one gang-scheduled task
// per executor in ring-rank order, MaxAttempts=1 with WaitAll
// (resubmitting one ring member cannot succeed, and recovery must not
// start while peers still drive the ring), each task splitting the
// shared IMM aggregator and running ring reduce-scatter (plus allgather
// for allreduce) under the configured per-step deadline. The op id
// tags every ring frame as this collective's epoch, so residue from an
// earlier aborted collective is discarded instead of reduced.
func runRingStage[T, U, V any](ctx context.Context, rc *rdd.Context, opID int64, key string, held map[int]bool, fns AggFuncs[T, U, V], o AggOptions, allGather bool) (V, error) {
	var zv V
	sctx := collective.WithEpoch(ctx, uint32(opID))
	if o.StepDeadline > 0 {
		sctx = collective.WithStepDeadline(sctx, o.StepDeadline)
	}
	if o.ChunkBytes != 0 {
		sctx = collective.WithChunkBytes(sctx, o.ChunkBytes)
	}
	// Ring size is the LIVE executor count of the installed epoch, not
	// the slot-table width: dead slots hold no rank in the epoch's ring.
	nExec := rc.NumLiveExecutors()
	nSegs := o.Parallelism * nExec
	ops := serdeOps[V](fns.ReduceOp)
	if fns.Ops != nil {
		ops = *fns.Ops
	}
	kind := "ring-reduce-scatter"
	if allGather {
		kind = "ring-allreduce"
	}
	untrack := rc.TrackCollective(rdd.CollectiveInfo{
		OpID:   opID,
		Kind:   kind,
		Tenant: o.Tenant,
		Tasks:  nExec,
		Epoch:  uint32(opID),
		Detail: key,
	})
	defer untrack()
	keepKey := o.KeepKey
	comp := o.Compress
	// Residual state for error feedback lives in the executor's mutable
	// object manager under a shape-keyed name that is NOT derived from
	// the op id: successive aggregations of the same shape (an optimizer
	// loop) must see the same residuals, or error feedback degenerates to
	// plain lossy quantization. The per-(channel, segment) map inside the
	// state self-resizes on dimension change, so shape reuse is safe.
	efStateKey := fmt.Sprintf("collective/ef/%s/p%d/s%d", comp.Codec, o.Parallelism, nSegs)
	_, aggSC := trace.FromContext(ctx)
	// Topology-aware gang stage: task i lands on the executor holding
	// ring rank i (any bijection works — the Fn keys off ec.Rank, and the
	// driver decodes payloads by embedded segment index — but rank order
	// makes traces line up with ring position). Gang admission holds the
	// whole stage until every executor has a free core: a partially
	// launched ring would deadlock against its unlaunched peers while
	// burning slots. Gang stages are never speculated — a duplicate ring
	// member would shift IMM state and corrupt the epoch.
	payloads, err := rc.RunJob(rdd.JobSpec{
		Tenant:      o.Tenant,
		Tasks:       nExec,
		Policy:      rc.TopologyPolicy(),
		Gang:        true,
		MaxAttempts: 1,
		WaitAll:     true,
		TraceParent: aggSC,
		Fn: func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			// Re-root the collective's telemetry under this task's span and
			// this executor's registry: ring-step spans nest under the task,
			// step histograms land executor-locally. The executor's core
			// budget also rides along so the chunked decode-reduce knows how
			// wide it may shard.
			cctx := collective.WithCores(ec.Instrument(sctx), ec.Cores)
			if comp.Codec != collective.CodecNone {
				spec := comp
				if spec.ErrorFeedback && spec.State == nil {
					spec.State = ec.MutObjs.GetOrCreate(efStateKey, func() any {
						return collective.NewCompressionState()
					}).Value().(*collective.CompressionState)
				}
				cctx = collective.WithCompression(cctx, spec)
			}
			// Stale-geometry guard: the stage was planned against an
			// installed epoch's live count, but executors refresh their
			// collective endpoint per dispatch — a reconfiguration landing
			// between planning and launch would run an nExec-wide plan on a
			// different-width ring. Bail with the churn classification so
			// the whole collective retries against the new epoch.
			if got := ec.Comm.Size(); got != nExec {
				return nil, fmt.Errorf("core: ring width changed under the stage (planned %d ranks, endpoint has %d): %w",
					nExec, got, ErrMembershipChanged)
			}
			// The task owns the executor's aggregator from here on: the
			// ring reduces in place in whatever SplitOp returns, and on
			// success the memory goes back through Recycle. A failed ring
			// leaves it partly reduced, so it is simply dropped.
			u, err := takeAgg(ec, key, held, &fns)
			if err != nil {
				return nil, err
			}
			segs := splitParallel(u, nSegs, ec.Cores, fns.SplitOp)
			owned, err := collective.RingReduceScatter(cctx, ec.Comm, segs, o.Parallelism, ops)
			if err != nil {
				return nil, err
			}
			if !allGather {
				frame := encodeOwned(owned, ops, ec.ResultBuf)
				fns.recycle(u)
				return frame, nil
			}
			all, err := collective.RingAllGather(cctx, ec.Comm, owned, o.Parallelism, ops)
			if err != nil {
				return nil, err
			}
			result := fns.ConcatOp(all)
			fns.recycle(u)
			if keepKey != "" {
				ec.MutObjs.GetOrCreate(keepKey, func() any { return result }).
					Update(func(any) any { return result })
			}
			// Only ring rank 0 returns the payload; everyone else acks.
			if ec.Rank != 0 {
				return nil, nil
			}
			return serde.Encode(nil, result)
		},
	})
	if err != nil {
		return zv, err
	}

	if allGather {
		for _, p := range payloads {
			if len(p) == 0 {
				continue
			}
			v, _, err := serde.Decode(p)
			if err != nil {
				return zv, err
			}
			return v.(V), nil
		}
		return zv, fmt.Errorf("core: allreduce produced no driver copy")
	}

	// Gather: order the segments by global index and reassemble.
	return decodeOwned(payloads, nSegs, ops, fns.ConcatOp)
}

// fallbackGather is the surviving-path tree reduction: the IMM stage
// runs again (the failed ring consumed the first run's aggregators),
// every executor republishes its fresh aggregator as a block, and the
// driver fetches and merges them serially in executor order — the exact
// merge TreeAggregateIMM performs, so the degraded result is identical
// to the tree result. The caller's cleanup stage drops the aggregators
// (key must sit under the prefix it clears).
func fallbackGather[T, U, V any](r *rdd.RDD[T], key string, parent trace.SpanContext, tenant string, fns *AggFuncs[T, U, V]) (U, error) {
	var zu U
	rc := r.Context()
	if _, err := runIMMStage(r, key, parent, tenant, fns); err != nil {
		return zu, err
	}
	blockID := key + "/block"
	_, err := rc.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		// Read, not take: the task may be retried after publishing.
		var agg U
		if obj := ec.MutObjs.Get(key); obj != nil {
			agg = obj.Value().(*immState[U]).agg
		} else {
			agg = fns.Zero()
		}
		wire, err := serde.Encode(nil, agg)
		if err != nil {
			return nil, err
		}
		ec.Store.PutLocal(blockID, wire)
		return nil, nil
	})
	if err != nil {
		return zu, err
	}
	defer rc.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		ec.Store.DeletePrefix(blockID)
		return nil, nil
	})
	acc := fns.Zero()
	for _, i := range rc.LiveExecutors() {
		wire, err := rc.DriverStore().FetchFrom(rc.ExecutorStoreName(i), blockID)
		if err != nil {
			return zu, err
		}
		v, _, err := serde.Decode(wire)
		if err != nil {
			return zu, err
		}
		acc = fns.MergeOp(acc, v.(U))
	}
	rc.DriverStore().DeletePrefix(blockID)
	return acc, nil
}

// replicateResult pushes the fallback allreduce result back onto every
// executor under key, round-tripping through serde so executors do not
// alias one value.
func replicateResult[V any](rc *rdd.Context, key string, result V) error {
	wire, err := serde.Encode(nil, result)
	if err != nil {
		return err
	}
	_, err = rc.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		v, _, err := serde.Decode(wire)
		if err != nil {
			return nil, err
		}
		ec.MutObjs.GetOrCreate(key, func() any { return v }).
			Update(func(any) any { return v })
		return nil, nil
	})
	return err
}
