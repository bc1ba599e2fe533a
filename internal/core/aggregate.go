package core

// Aggregate is the one aggregation entry point: a single call that
// selects the reduction strategy (tree, tree+IMM, split, allreduce),
// carries per-step communication deadlines into the ring collectives,
// and owns the one failure rule of the IMM-based strategies — re-run
// the aggregation (decide, below, is the whole table).
//
// Fault model. The ring stage runs with MaxAttempts=1: resubmitting one
// ring member alone cannot succeed, so the classified failure
// (comm.ErrPeerTimeout, comm.ErrPeerDown) is surfaced promptly instead
// of burning the retry budget. The ring reduces in place in each
// executor's resident aggregator (when SplitOp returns views), so a
// failed ring leaves the aggregators partly reduced; recovery is the
// paper's (§3.2): drop the executors' shared values and run the stage
// again — against the new epoch's ring when the failure was membership
// churn, as StrategyIMM when the executor set is stable and only the
// ring is broken. The degraded run needs nothing but the task
// transport to have survived the ring fault (e.g. a severed or silent
// PDR link). The failure path pays for the recompute; the healthy path
// keeps no pristine copy. Recoveries are observable: the counters
// metrics.CounterPeerFailure, metrics.CounterRingFallback and
// metrics.CounterElasticRetry are bumped and a marker event is written
// to the history log.

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
	"sparker/internal/transport"
)

// ErrMembershipChanged classifies a stage failure whose cause was a
// membership reconfiguration (an executor died, left or was replaced
// under the aggregation). Aggregate re-runs such an aggregation whole
// against the new epoch. Aliases rdd.ErrMembershipChanged so the
// classification survives the task result frame (the wire codec maps
// the sentinel to a status byte and re-attaches it driver-side).
var ErrMembershipChanged = rdd.ErrMembershipChanged

// elasticRetryWait bounds how long a classified failure waits for the
// suspected membership reconfiguration to install before concluding
// the executor set is stable. Ctrl-connection eviction is near-instant,
// so churn-caused failures see the new epoch well inside this window.
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
	// Parallelism caps the PDR channel count for the ring strategies
	// (default: the context's RingParallelism): at most P channels; the
	// ring uses min(P, ⌈aggregator bytes ÷ B⌉), B the ring's chunk size
	// (collective.RingChannels).
	Parallelism int
	// StepDeadline bounds each ring collective step. Non-positive
	// values select DefaultStepDeadline.
	StepDeadline time.Duration
	// KeepKey, for StrategyAllReduce, stores the reduced result in every
	// executor's mutable object manager under this key.
	KeepKey string
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

// WithParallelism caps the PDR channel count for the ring strategies:
// at most p channels; the ring uses min(p, ⌈aggregator bytes ÷ B⌉), B
// the ring's chunk size (collective.RingChannels). Zero selects the
// context's RingParallelism; negative values are rejected by Aggregate.
func WithParallelism(p int) AggOption {
	return func(o *AggOptions) { o.Parallelism = p }
}

// WithDeadline sets the per-step communication deadline for the ring
// strategies. Non-positive values select DefaultStepDeadline.
func WithDeadline(d time.Duration) AggOption {
	return func(o *AggOptions) { o.StepDeadline = d }
}

// WithKeepKey keeps the StrategyAllReduce result resident on every
// executor under key.
func WithKeepKey(key string) AggOption {
	return func(o *AggOptions) { o.KeepKey = key }
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
	// merge of the tree strategies, which add a []float64 frame from the
	// wire instead when Ops pack: f64Wire).
	MergeOp func(U, U) U
	// SplitOp returns segment i of n from an aggregator; all ranks must
	// agree on the segmentation, and SplitOp(u, 0, 1) must be the whole
	// aggregator viewed as a segment (how the tree strategies convert U
	// to V). Segments may alias u (SplitSlice): the
	// ring then reduces in place in the resident aggregator, which no
	// one reads afterwards. Copies (SplitSliceCopy) work as well and cost
	// one pass over the aggregator.
	SplitOp func(u U, i, n int) V
	// ReduceOp merges two aggregator segments.
	ReduceOp func(V, V) V
	// ConcatOp reassembles the ordered reduced segments. It must be plain
	// concatenation when Ops has a fixed stride, which only []float64
	// words have (collective.F64Ops): the driver then reads the gathered
	// segments, end to end, from their frames and does not call it.
	ConcatOp func([]V) V
	// Ops, when non-nil, replaces the generic serde-backed collective
	// operations for the ring stage. Supplying ops with the chunked fast
	// path (fixed stride, Fuse/Encoded hooks — e.g. collective.F64Ops for
	// []float64 segments) enables zero-decode chunk reduction and the
	// packed chunk form. Ops that pack over a []float64 U also move the
	// tree's and the IMM gather's frames (f64Wire): encoded from Support,
	// added into the driver's accumulator from the wire in O(support).
	Ops *collective.Ops[V]
	// Recycle, when non-nil, receives every aggregator the engine made
	// with Zero and is done with — a partition's accumulator once merged
	// or its tree block encoded, an executor's resident aggregator once
	// its segments or IMM frame are encoded or concatenated — so Zero can
	// hand the memory out again. Supply it only if nothing SplitOp,
	// ConcatOp or the serde encoding of U produced can still alias the
	// aggregator at that point (ConcatSlices copies; identity callbacks
	// do not qualify). Aggregators that reach the caller (the tree
	// strategies' result) are never recycled.
	Recycle func(U)
	// Support, when non-nil, names the aggregator elements SeqOp(acc, t)
	// may change: a bitmap over the concatenation of SplitOp's segments,
	// bit i%64 of word i/64 for element i. A clear bit promises SeqOp
	// leaves that element's bits as Zero made them (+0.0); nil means
	// unknown. The ring strategies fold it beside each executor's
	// aggregator and encode packed chunks from it in O(support) when Ops
	// can pack (collective.WithSupport), as do the tree's and the IMM
	// gather's frames (f64Wire); the bytes they send do not change. Core
	// never writes a returned bitmap, and ORs each one in whole, so it
	// suits a few large elements (a packed partition), not one per point.
	Support func(T) []uint64
	// Fold, when non-nil, folds one task's elements in their support: it
	// appends to dst the values Zero, then SeqOp over elems in order,
	// would leave at the set bits of the elements' Support (ORed), in bit
	// order, and returns them with the aggregator's element count n — a
	// compact accumulator. ok false declines, and the task folds with
	// Zero and SeqOp; an error fails the task. Core calls it only when U
	// and V are []float64 and Ops pack (what lets a frame be written from
	// a support), passes a dst from its own free list and takes the
	// values back when it is done with them (never through Recycle). A
	// tree stage-1 task writes its block from them; an IMM-stage task
	// keeps them as its executor's aggregator, which the ring then reduces
	// segment by segment, cut at SplitSlice's bounds — SplitOp must be
	// SplitSlice. With no Support, Fold is never called.
	Fold func(dst U, elems []T) (vals U, n int, ok bool, err error)
	// Finish, when non-nil, ends the aggregation on the driver in place of
	// assembling the aggregate: it reads the reduced aggregate from the
	// frames it came home in — the split gather's owned segments, the IMM
	// gather's or the tree's last round's frames, allreduce's rank-0 copy
	// — through agg, valid only during the call, and returns what
	// Aggregate returns. It runs inside the reduce phase, after every frame
	// was validated, once per attempt that gets that far; an error fails
	// the aggregation. Core accepts it only when U and V are []float64 and
	// Ops pack (the frames are then []float64 words); with Finish nil core
	// assembles the dense aggregate through the same reader.
	Finish func(agg *serde.F64Frames) (V, error)
}

// recycle hands u to Recycle when the caller supplied one.
func (f *AggFuncs[T, U, V]) recycle(u U) {
	if f.Recycle != nil {
		f.Recycle(u)
	}
}

func (f *AggFuncs[T, U, V]) validate(s Strategy) error {
	if s < StrategySplit || s > StrategyAllReduce {
		return fmt.Errorf("core: unknown strategy %v", s)
	}
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
	if f.Finish != nil && !f.f64Wire() {
		return fmt.Errorf("core: Aggregate(%v): Finish requires []float64 U and V and Ops that pack", s)
	}
	return nil
}

// Aggregate reduces r with fns under the chosen options and returns the
// final aggregate as a segment-typed value (for the tree strategies,
// and so for a degraded run, this is SplitOp(result, 0, 1)).
//
// ctx bounds the communication of the ring strategies: it is the parent
// of every per-step deadline context, so cancelling it aborts in-flight
// collectives with a classified error. It does not preempt executor
// compute. An aggregation that fails once ctx is done returns an error
// that wraps ctx.Err(): the ring tasks report the cancellation as text.
func Aggregate[T, U, V any](ctx context.Context, r *rdd.RDD[T], fns AggFuncs[T, U, V], opts ...AggOption) (res V, retErr error) {
	defer func() {
		if cerr := ctx.Err(); retErr != nil && cerr != nil && !errors.Is(retErr, cerr) {
			retErr = fmt.Errorf("%w: %w", cerr, retErr)
		}
	}()
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
	if o.StepDeadline <= 0 {
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

	// One "aggregate" span per call, parenting every stage it submits
	// (and the fallback span on degradation). Parent comes from ctx so
	// mllib iteration spans stitch above it.
	tr := rc.Tracer()
	_, parentSC := trace.FromContext(ctx)
	span := tr.StartSpan("aggregate", parentSC)
	span.SetAttr("strategy", strategy.String())
	defer func() { span.EndErr(retErr) }()
	ctx = trace.WithSpan(ctx, span)

	if strategy == StrategyTree {
		// Not IMM-based: nothing stays resident on the executors, and its
		// stages retry task by task inside the engine.
		u, err := rdd.TreeAggregate(r, fns.Zero, fns.SeqOp, fns.MergeOp,
			rdd.AggregateOptions{Depth: o.Depth, TraceParent: span.Context()}, fns.treeHooks())
		if err != nil {
			return zv, err
		}
		return fns.result(u), nil
	}

	// The one recovery rule of the IMM-based strategies: an attempt that
	// fails is re-run whole — same strategy or degraded to StrategyIMM,
	// as decide says — at most maxElasticRetries times.
	var ringErr error              // the failure a degraded run is recovering from
	var fallback *trace.ActiveSpan // open while it does
	for attempt := 0; ; attempt++ {
		epoch0 := rc.MembershipEpoch()
		opID := rc.NewOpID()
		prefix := fmt.Sprintf("%s/%d/", strategy, opID)
		res, leftovers, err := runAttempt(ctx, r, &fns, o, strategy, opID, prefix+"agg")
		if err == nil {
			fallback.SetAttr("recovered", "true")
			fallback.End()
			return res, nil
		}
		class := classify(err)
		// Executors swap endpoints before the driver installs the epoch,
		// and ctrl-connection eviction races the very error in hand, so a
		// classified failure waits briefly for the install: a re-run
		// planned against the still-stale view would fail the same way.
		epochMoved := class != failOther && rc.AwaitReconfigured(epoch0, elasticRetryWait)
		if leftovers {
			cleanupIMM(rc, span.Context(), prefix)
		}

		switch action := decide(class, epochMoved, attempt < maxElasticRetries); {
		case action == surface:
			if ringErr != nil {
				err = fmt.Errorf("core: IMM re-run after ring failure (%v): %w", ringErr, err)
			}
			fallback.EndErr(err)
			return zv, err
		case action == retrySame || strategy == StrategyIMM:
			// (StrategyIMM degraded to itself is a plain re-run.)
			rc.RecordMarker(metrics.CounterElasticRetry,
				fmt.Sprintf("re-running %s aggregation against epoch %d: %v", strategy, rc.MembershipEpoch(), err))
		default:
			// The degradation is a span of its own: its duration is the
			// measured recovery cost and its attrs carry the classified
			// cause — the trace-level view the chaos suites assert on.
			rc.RecordMarker(metrics.CounterPeerFailure, err.Error())
			rc.RecordMarker(metrics.CounterRingFallback,
				fmt.Sprintf("%s aggregation degraded to %s: %v", strategy, StrategyIMM, err))
			fallback = tr.StartSpan("ring-fallback", span.Context())
			fallback.SetAttr("strategy", strategy.String())
			fallback.SetAttr("cause", err.Error())
			ringErr, strategy = err, StrategyIMM
		}
	}
}

// failure is the class of a failed attempt, as far as recovery cares.
type failure int

const (
	// failOther is everything recovery cannot act on (a task's own
	// error, a cancelled context, a malformed frame).
	failOther failure = iota
	// failPeer: a peer stopped answering (comm.ErrPeerTimeout), its
	// transport died (comm.ErrPeerDown), or the scheduler lost the
	// executor outright (sched.ErrExecutorLost).
	failPeer
	// failClosed: the task's collective endpoint was closed under it
	// (comm.ErrClosed) — during churn that is the atomic endpoint swap
	// of a reconfiguration, on a stable epoch a genuine local shutdown.
	failClosed
	// failMembership: the stage itself detected the churn (stale ring
	// geometry, an aggregator that went with a replaced executor).
	failMembership
)

func classify(err error) failure {
	switch {
	case errors.Is(err, ErrMembershipChanged):
		return failMembership
	case errors.Is(err, comm.ErrPeerTimeout), errors.Is(err, comm.ErrPeerDown), errors.Is(err, sched.ErrExecutorLost):
		return failPeer
	case errors.Is(err, comm.ErrClosed):
		return failClosed
	default:
		return failOther
	}
}

// recovery is what Aggregate does about a failed attempt.
type recovery int

const (
	// surface returns the error to the caller.
	surface recovery = iota
	// retrySame re-runs the aggregation whole — fresh op id, fresh IMM
	// stage, the installed epoch's ring.
	retrySame
	// degradeToIMM re-runs it as StrategyIMM: the same IMM stage, then a
	// gather over task result frames and the serial driver merge, so the
	// degraded result is the StrategyIMM result bit for bit.
	degradeToIMM
)

// maxElasticRetries bounds the re-runs of one Aggregate call. Each
// needs a fresh classified failure, so the loop is bounded by actual
// fault events; the cap guards against a cluster reconfiguring faster
// than it can complete one aggregation (back-to-back churn — an
// eviction immediately followed by a replacement join — can break two
// attempts in a row).
const maxElasticRetries = 3

// decide is the failure-handling table (DESIGN.md "Failure handling"):
// the only place an error class becomes a recovery action.
func decide(class failure, epochMoved, attemptsLeft bool) recovery {
	switch {
	case class == failOther || !attemptsLeft:
		return surface
	case class == failMembership || epochMoved:
		// Churn. What is resident belongs to the old executor set — a
		// departed member's aggregator is gone — so only a whole re-run
		// against the new epoch is sound.
		return retrySame
	case class == failPeer:
		// Stable executor set, broken ring: every executor can still
		// recompute its aggregator, only the PDR cannot carry it.
		return degradeToIMM
	default:
		// A closed endpoint on a stable epoch is a local shutdown.
		return surface
	}
}

// runAttempt runs the aggregation once as strategy: the IMM stage every
// IMM-based strategy starts with, then the ring (split, allreduce) or
// the gather over task result frames (IMM). Either second stage takes
// every executor's aggregator, so a healthy run leaves nothing behind
// and submits no cleanup stage. On failure, leftovers says whether
// executors may still hold this attempt's aggregators: a failed second
// stage leaves them with the tasks that never ran, while a failed IMM
// stage already ran its own StageCleanup after every attempt (unless
// that cleanup is what failed).
func runAttempt[T, U, V any](ctx context.Context, r *rdd.RDD[T], fns *AggFuncs[T, U, V], o AggOptions, strategy Strategy, opID int64, key string) (res V, leftovers bool, err error) {
	var zv V
	rc := r.Context()
	_, aggSC := trace.FromContext(ctx)

	// Stage 1: reduced-result stage (IMM) → one aggregator per executor.
	start := time.Now()
	// Only ops that pack read the supports: the ring's, and the IMM
	// gather's []float64 frames (f64Wire).
	track := fns.Support != nil && fns.Ops != nil && fns.Ops.CanPack()
	held, err := runIMMStage(r, key, aggSC, fns, track)
	if err != nil {
		return zv, errors.Is(err, rdd.ErrStageCleanup), err
	}
	rc.RecordPhase(metrics.PhaseAggCompute, time.Since(start), "IMM reduced-result stage")

	start = time.Now()
	defer func() {
		rc.RecordPhase(metrics.PhaseAggReduce, time.Since(start), strategy.String()+" reduce stage")
	}()
	if strategy != StrategyIMM {
		// Stage 2: SpawnRDD — exactly one task per executor, statically
		// placed, running the ring collective with per-step deadlines.
		res, err = runRingStage(ctx, rc, opID, key, held, fns, o, strategy == StrategyAllReduce)
		return res, true, err
	}
	frames, err := gatherIMM(rc, aggSC, key, held, fns)
	if err != nil {
		return zv, true, err
	}
	var keep func(U) error
	if o.Strategy == StrategyAllReduce && o.KeepKey != "" {
		// A degraded allreduce still owes every executor its copy.
		keep = func(u U) error { return replicateResult(rc, aggSC, o.KeepKey, fns.SplitOp(u, 0, 1)) }
	}
	u, err := fns.reduceFrames(frames, keep)
	if err != nil {
		return zv, false, err
	}
	return fns.result(u), false, nil
}

// runRingStage submits the collective stage: one gang-scheduled task
// per executor in ring-rank order, MaxAttempts=1 with WaitAll
// (resubmitting one ring member cannot succeed, and recovery must not
// start while peers still drive the ring), each task splitting the
// shared IMM aggregator and running ring reduce-scatter (plus allgather
// for allreduce) under the configured per-step deadline. The op id
// tags every ring frame as this collective's epoch, so residue from an
// earlier aborted collective is discarded instead of reduced.
func runRingStage[T, U, V any](ctx context.Context, rc *rdd.Context, opID int64, key string, held map[int]bool, fns *AggFuncs[T, U, V], o AggOptions, allGather bool) (V, error) {
	var zv V
	sctx := collective.WithStepDeadline(collective.WithEpoch(ctx, uint32(opID)), o.StepDeadline)
	// Ring size is the LIVE executor count of the installed epoch, not
	// the slot-table width: dead slots hold no rank in the epoch's ring.
	live := rc.LiveExecutors()
	if err := requireHeld(held, live); err != nil {
		return zv, err
	}
	nExec := len(live)
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
		Tasks:  nExec,
		Epoch:  uint32(opID),
		Detail: key,
	})
	defer untrack()
	keepKey := o.KeepKey
	_, aggSC := trace.FromContext(ctx)
	// Topology-aware gang stage: task i lands on the executor holding
	// ring rank i (any bijection works — the Fn keys off ec.Rank, and the
	// driver decodes payloads by embedded segment index — but rank order
	// makes traces line up with ring position). Gang admission holds the
	// whole stage until every executor has a free core: a partially
	// launched ring would deadlock against its unlaunched peers while
	// burning slots. Gang stages are never speculated — a duplicate ring
	// member would shift IMM state and corrupt the epoch.
	h, err := rc.SubmitJob(rdd.JobSpec{
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
			// ring reduces in place in its segments, and on success the
			// memory goes back (AggFuncs.release). A failed ring leaves
			// it partly reduced, so it is simply dropped.
			u, sup, n, err := takeAgg(ec, key, held, fns)
			if err != nil {
				return nil, err
			}
			var run ringRun[V]
			if n > 0 {
				run, err = reduceCompact[V](cctx, ec, any(u).([]float64), sup, n, nExec, o.Parallelism)
			} else {
				run, err = reduceDense(cctx, ec, u, sup, nExec, o.Parallelism, ops, fns)
			}
			if err != nil {
				return nil, err
			}
			if !allGather {
				frame := run.frame(ec.ResultBuf)
				fns.release(&run, u)
				return frame, nil
			}
			all, err := collective.RingAllGather(cctx, ec.Comm, run.dense(), run.p, ops)
			if err != nil {
				return nil, err
			}
			result := fns.ConcatOp(all)
			fns.release(&run, u)
			if keepKey != "" {
				ec.MutObjs.GetOrCreate(keepKey, func() any { return result }).
					Update(func(any) any { return result })
			}
			// Only ring rank 0 returns the payload; everyone else acks.
			if ec.Rank != 0 {
				return nil, nil
			}
			return fns.encodeResult(result, ec.ResultBuf)
		},
	})
	if err != nil {
		return zv, err
	}
	payloads, err := h.Wait()
	if err == nil {
		err = requireHeld(held, h.Executors())
	}
	if err != nil {
		return zv, err
	}

	if allGather {
		for _, p := range payloads {
			if len(p) == 0 {
				continue
			}
			if !fns.f64Wire() {
				v, _, err := serde.Decode(p)
				if err != nil {
					return zv, err
				}
				return v.(V), nil
			}
			agg := serde.ConcatF64()
			defer agg.Release()
			if err := agg.AppendFrame(p); err != nil {
				return zv, err
			}
			v, err := finishF64(agg, fns.Finish)
			transport.PutBuf(p)
			return v, err
		}
		return zv, fmt.Errorf("core: allreduce produced no driver copy")
	}

	// Gather: order the segments by global index and reassemble.
	return decodeOwned(payloads, ops, fns.ConcatOp, fns.Finish)
}

// ringRun is one executor's reduce-scatter as the ring task finishes
// it: the segments it owns, the support the ring left over its segments
// (nil: none), the channel count it ran at, and what it reduced — a
// dense aggregator's segments, or a compact one's source and the bodies
// it owns.
type ringRun[V any] struct {
	owned  map[int]V
	bits   []uint64
	p      int
	ops    collective.Ops[V]
	segs   []V
	src    *compactSegs
	bodies map[int]*serde.Body
}

// frame is the owned-segments frame (encodeOwned) of the run.
func (r *ringRun[V]) frame(draw func(n int) []byte) []byte {
	if r.src != nil {
		return encodeOwned(r.bodies, collective.BodyOps(), nil, nil, draw)
	}
	return encodeOwned(r.owned, r.ops, r.bits, func(i int) int { return segsElems(r.ops, r.segs[:i]) }, draw)
}

// dense is the owned segments laid out dense, for the allgather: a
// compact run's bodies are densified once, in place.
func (r *ringRun[V]) dense() map[int]V {
	if r.src != nil {
		r.owned = make(map[int]V, len(r.bodies))
		for i, b := range r.bodies {
			r.owned[i] = any(b.Densify()).(V)
		}
	}
	return r.owned
}

// release gives the aggregator's memory back once nothing reads the
// owned segments: a compact one's bodies and values to core's free
// lists, a dense one, u, through Recycle.
func (fns *AggFuncs[T, U, V]) release(run *ringRun[V], u U) {
	if run.src != nil {
		run.src.release(run.bodies)
		return
	}
	fns.recycle(u)
}

// reduceDense reduce-scatters a dense aggregator u, split by SplitOp.
// P is a cap: a fixed-stride aggregator too small to fill a chunk per
// channel rides fewer (collective.RingChannels), and is split again at
// that width — at most a few chunks' bytes, so an aggregator wide
// enough for all P is split once. Every rank's aggregator has the same
// length, so every rank picks the same width, and the driver reads it
// off the frames. The support goes to the ring, which ORs what it
// reduces in into it, and then to the owned frame; it dies with u.
func reduceDense[T, U, V any](ctx context.Context, ec *rdd.ExecContext, u U, sup support, nExec, parallelism int, ops collective.Ops[V], fns *AggFuncs[T, U, V]) (ringRun[V], error) {
	segs := splitParallel(u, parallelism*nExec, ec.Cores, fns.SplitOp)
	elems := 0
	if ops.ChunkStride() > 0 {
		elems = segsElems(ops, segs)
	}
	p := collective.RingChannels(ctx, parallelism, elems, ops)
	if p < parallelism {
		segs = splitParallel(u, p*nExec, ec.Cores, fns.SplitOp)
	}
	var bits []uint64
	if ops.CanPack() {
		if bits = sup.words(elems); bits != nil {
			ctx = collective.WithSupport(ctx, bits)
		}
	}
	owned, err := collective.RingReduceScatter(ctx, ec.Comm, segs, p, ops)
	return ringRun[V]{owned: owned, bits: bits, p: p, ops: ops, segs: segs}, err
}

// reduceCompact reduce-scatters a compact aggregator (compact.go) of n
// elements through a compactSegs source, at the width and SplitSlice
// bounds a dense one of n elements would ride: the same segments, held
// as bodies (collective.BodyOps), and the same frames. Only f64Wire
// aggregators are compact, so V is []float64.
func reduceCompact[V any](ctx context.Context, ec *rdd.ExecContext, vals []float64, sup support, n, nExec, parallelism int) (ringRun[V], error) {
	ops := collective.BodyOps()
	p := collective.RingChannels(ctx, parallelism, n, ops)
	src := newCompactSegs(vals, sup.bits, n, p*nExec)
	bodies, err := collective.RingReduceScatterFrom(ctx, ec.Comm, src, p, ops)
	return ringRun[V]{p: p, src: src, bodies: bodies}, err
}

// replicateResult pushes a degraded allreduce's result back onto every
// executor under key, round-tripping through serde so executors do not
// alias one value.
func replicateResult[V any](rc *rdd.Context, parent trace.SpanContext, key string, result V) error {
	wire, err := serde.Encode(nil, result)
	if err != nil {
		return err
	}
	_, err = rc.RunOnLiveExecutors(parent, func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
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
