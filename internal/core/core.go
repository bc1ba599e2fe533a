// Package core implements Sparker's contribution: the Split
// Aggregation Interface (SAI) and In-Memory Merge (IMM) on top of the
// rdd engine.
//
// Aggregate is the entry point (AggregateF64 for a []float64 sum); its
// Strategy option selects among the paper's Figure 16 reductions:
//
//   - StrategyTree — the Spark baseline, treeAggregate (runTree):
//     per-task serialized results, combiner stages, serial driver merge.
//   - StrategyIMM — tree aggregation with in-memory merge: tasks on the
//     same executor merge into a shared aggregator inside the mutable
//     object manager before anything is serialized, so only one result
//     per executor crosses the wire (§3.2, Figure 8).
//   - StrategySplit — the full design (§3.1, Figure 6): IMM leaves one
//     aggregator per executor, a statically placed stage (SpawnRDD,
//     §4.3) splits each into P×N segments with SplitOp and runs ring
//     reduce-scatter over the parallel directed ring (P channels, at most
//     the configured count and no more than the aggregator's bytes can
//     fill), and the driver gathers the reduced segments and reassembles
//     them with ConcatOp.
//   - StrategyAllReduce — split aggregation past the paper: §6 notes
//     that once reduction is fixed, "the driver overhead becomes the new
//     bottleneck" because every iteration still gathers the aggregator
//     to the driver and redistributes the updated model. The gather is
//     replaced by a ring allgather, leaving the reduced aggregate
//     resident on every executor (WithKeepKey); only ring rank 0 ships a
//     copy back so the driver can observe it.
//
// Type parameters follow the paper: T is the element type, U the
// aggregator type, V the aggregator-segment type. U and V may differ —
// the paper's abstract-aggregator argument — and both must be
// serde-encodable where they cross executor boundaries (U for the IMM
// gather, V for reduce-scatter traffic).
//
// One signature deviation from Figure 6: AggFuncs carries MergeOp
// (U, U) → U for the intra-executor merge. The paper's shared in-memory
// value is merged with the aggregator class's own merge method (Figure
// 7, line 6), which its interface listing leaves implicit; Go has no
// method requirement to hang that on, so the callback is explicit.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sparker/internal/collective"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/serde"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// plane is where the generic plane (AggFuncs) and the f64 plane
// (F64Funcs, f64.go) differ. The stage code — the IMM stage, the ring
// stage, the IMM gather, the tree's rounds and Aggregate's retry loop —
// is written once over it, and each method runs once per task or stage,
// never per element. A is the accumulator a task holds, V the segment.
type plane[T, A, V any] interface {
	// validate rejects callbacks strategy s cannot run with.
	validate(s Strategy) error
	// fold is one task's fold of its partition (the IMM stage's and the
	// tree's stage 1's); fold(nil) is an empty accumulator.
	fold(data []T) (A, error)
	// merge merges acc into a (the IMM merge) and is done with acc.
	merge(a, acc A) A
	// encode is a's tree frame in draw's buffer (nil: a fresh one), and
	// is done with a.
	encode(a A, draw func(int) []byte) ([]byte, error)
	// mergeWire merges one tree frame into a (a combine task's).
	mergeWire(a A, wire []byte) (A, error)
	// read is the driver's end of the tree strategies: the serial merge
	// from Zero of frames (the tree's last round or the IMM gather) in
	// task order; keep, when set, is handed the dense aggregate first (a
	// degraded allreduce replicates it). The frames go back to the pool.
	read(frames [][]byte, keep func(V) error) (V, error)
	// reduce reduce-scatters a, the owned segments dense for allGather.
	reduce(ctx context.Context, ec *rdd.ExecContext, a A, nExec, p int, allGather bool) (ringRun[V], error)
	// concat is the allgather's reassembly of the ordered segments.
	concat(segs []V) V
	// release gives a's memory back once nothing reads run's segments.
	release(run *ringRun[V], a A)
	// encodeResult is allreduce rank 0's frame of v, in draw's buffer
	// where it can be; readResult is the driver's reading of it.
	encodeResult(v V, draw func(int) []byte) ([]byte, error)
	readResult(p []byte) (V, error)
	// readOwned is the driver's reading of the owned-segments frames.
	readOwned(payloads [][]byte) (V, error)
}

// immState is the per-executor shared aggregator for one aggregation.
type immState[A any] struct {
	agg   A
	tasks int // number of task results merged in
}

// runIMMStage executes the reduced-result stage: every partition is
// folded (plane.fold) into its own accumulator; the first accumulator to
// finish on an executor is adopted as that executor's resident
// aggregator and the later ones are merged into it (plane.merge).
// Adoption replaces merging the first accumulator into a fresh zero():
// the association order of the accumulators is unchanged (arrival
// order), only the identity element at its head is gone. On any task
// failure the stage's shared values are cleared on every executor and
// the whole stage re-submitted (§3.2). Afterwards each executor that ran
// a task holds exactly one aggregator under key; held reports which
// executors those are.
func runIMMStage[T, A, V any](r *rdd.RDD[T], key string, parent trace.SpanContext, pl plane[T, A, V]) (held map[int]bool, err error) {
	h, err := r.Context().SubmitJob(rdd.JobSpec{
		Tasks:       r.NumPartitions(),
		TraceParent: parent,
		Fn: func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			// Fold locally first so executor cores compute in parallel;
			// only the final merge serializes on the shared object.
			acc, err := pl.fold(data)
			if err != nil {
				return nil, err
			}
			ec.MutObjs.GetOrCreate(key, func() any { return &immState[A]{} }).Update(func(v any) any {
				st := v.(*immState[A])
				if st.tasks == 0 {
					st.agg = acc
				} else {
					st.agg = pl.merge(st.agg, acc)
				}
				st.tasks++
				return st
			})
			// A reduced-result task returns nothing — the aggregator
			// itself stays in executor memory.
			return nil, nil
		},
		StageCleanup: func(ec *rdd.ExecContext) error {
			ec.MutObjs.Remove(key)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if _, err := h.Wait(); err != nil {
		return nil, err
	}
	held = make(map[int]bool)
	for _, e := range h.Executors() {
		held[e] = true
	}
	return held, nil
}

// takeAgg removes the executor's resident aggregator from the mutable
// object manager and returns it: the calling task now holds the only
// reference, and nothing is left behind for a cleanup stage. An
// executor that ran no task of the IMM stage contributes fold(nil); one
// that did (held) and has no aggregator has lost it — it was already
// taken, or the executor was replaced since — which must fail the task
// rather than pass a zero off as its contribution.
func takeAgg[T, A, V any](ec *rdd.ExecContext, key string, held map[int]bool, pl plane[T, A, V]) (A, error) {
	if obj := ec.MutObjs.Get(key); obj != nil {
		ec.MutObjs.Remove(key)
		return obj.Value().(*immState[A]).agg, nil
	}
	if held[ec.ID] {
		var za A
		return za, fmt.Errorf("core: executor %d no longer holds aggregator %s: %w", ec.ID, key, ErrMembershipChanged)
	}
	return pl.fold(nil)
}

// requireHeld fails with ErrMembershipChanged unless every executor in
// held is in execs, the executors a second stage runs (or ran) on. A
// holder that runs no second-stage task — gone with no replacement —
// takes its share of the aggregate with it, and what the others return
// would be a silent undercount. The driver checks before the stage
// launches and again after it returns.
func requireHeld(held map[int]bool, execs []int) error {
	for e := range held {
		if !slices.Contains(execs, e) {
			return fmt.Errorf("core: executor %d holds an IMM aggregator but runs no task of the second stage: %w", e, ErrMembershipChanged)
		}
	}
	return nil
}

// cleanupIMM drops a failed attempt's resident aggregators everywhere.
// Only failure paths need it: the ring task and the IMM gather task
// take their executor's aggregator when they start.
func cleanupIMM(ctx *rdd.Context, parent trace.SpanContext, prefix string) {
	// Best effort: an executor the job cannot reach is being evicted,
	// and its objects go with it.
	_, _ = ctx.RunOnLiveExecutors(parent, func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		ec.MutObjs.ClearPrefix(prefix)
		return nil, nil
	})
}

// gatherIMM is StrategyIMM's second stage: every executor serializes
// the one aggregator the reduced-result stage left it into its result
// frame, and the driver receives the frames in executor order, for
// plane.read to merge serially. The reduction remains tree-shaped
// (driver-bound); only the serialization volume shrinks from one result
// per task to one per executor.
func gatherIMM[T, A, V any](ctx *rdd.Context, parent trace.SpanContext, key string, held map[int]bool, pl plane[T, A, V]) ([][]byte, error) {
	live := slices.Clone(ctx.LiveExecutors())
	if err := requireHeld(held, live); err != nil {
		return nil, err
	}
	h, err := ctx.SubmitJob(rdd.JobSpec{
		Tasks:       len(live),
		Placement:   live,
		TraceParent: parent,
		Fn: func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			a, err := takeAgg(ec, key, held, pl)
			if err != nil {
				return nil, err
			}
			return pl.encode(a, ec.ResultBuf)
		},
	})
	if err != nil {
		return nil, err
	}
	payloads, err := h.Wait()
	if err == nil {
		err = requireHeld(held, h.Executors())
	}
	if err != nil {
		return nil, err
	}
	return payloads, nil
}

// runTree is StrategyTree, Spark's treeAggregate: stage 1 folds each
// partition to its frame under the RDD's placement policy, rounds of
// combine tasks merge the previous round's frames from the wire, and
// the driver merges the last round's serially in task order
// (plane.read) — the non-scalable reduction Sparker replaces. The
// round plan is fixed before stage 1: Spark computes scale = max(2,
// ⌈parts^(1/depth)⌉) and adds a round of ⌈cur/scale⌉ combiners while
// that keeps shrinking the count. Each round but the last stores its
// frames in the executors' block stores for the next to fetch, and a
// cleanup job drops them; the last round's are built in the task's
// result buffer and come home as its results, of any size (Spark's
// 1 MiB switch to fetched results is not modelled).
func runTree[T, A, V any](r *rdd.RDD[T], parent trace.SpanContext, pl plane[T, A, V], depth int) (V, error) {
	var zv V
	rc := r.Context()
	prefix := fmt.Sprintf("agg/%d/", rc.NewOpID())
	var combiners []int
	for cur, scale := r.NumPartitions(), max(2, intRoot(r.NumPartitions(), depth)); depth > 1 && cur > scale+cur/scale; {
		cur = (cur + scale - 1) / scale
		combiners = append(combiners, cur)
	}
	last := len(combiners)
	if last > 0 {
		// Best effort: an unreachable executor's blocks go with it.
		defer rc.RunOnLiveExecutors(parent, func(ec *rdd.ExecContext, _, _ int) ([]byte, error) {
			ec.Store.DeletePrefix(prefix)
			return nil, nil
		})
	}
	blockID := func(round, idx int) string {
		return fmt.Sprintf("%sr%d/%d", prefix, round, idx)
	}
	// seal ends a round's task with its accumulator's frame: the last
	// round's is its result, an earlier round's is stored.
	seal := func(ec *rdd.ExecContext, round, task int, a A) ([]byte, error) {
		if round == last {
			return pl.encode(a, ec.ResultBuf)
		}
		frame, err := pl.encode(a, nil)
		if err == nil {
			ec.Store.PutLocal(blockID(round, task), frame)
		}
		return nil, err
	}

	// Stage 1 (agg-compute).
	start := time.Now()
	h, err := rc.SubmitJob(rdd.JobSpec{
		TraceParent: parent,
		Tasks:       r.NumPartitions(),
		Policy:      r.PlacementPolicy(),
		Fn: func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			acc, err := pl.fold(data)
			if err != nil {
				return nil, err
			}
			return seal(ec, 0, task, acc)
		},
	})
	var payloads [][]byte
	if err == nil {
		payloads, err = h.Wait()
	}
	rc.RecordPhase(metrics.PhaseAggCompute, time.Since(start), "treeAggregate stage 1")
	if err != nil {
		return zv, err
	}
	// Where each block actually landed: the winning executor of each
	// task. Speculation or cache-aware placement can move a task off
	// i % NumExecutors, so combine rounds follow the recorded owners.
	place := h.Executors()

	// Combine rounds (agg-reduce), each repartitioning the previous
	// round's blocks by part % numCombiners.
	start = time.Now()
	defer func() { rc.RecordPhase(metrics.PhaseAggReduce, time.Since(start), "treeAggregate combine+driver") }()
	cur := r.NumPartitions()
	for i, numCombiners := range combiners {
		srcCount, srcPlace, round := cur, place, i+1
		h, err := rc.SubmitJob(rdd.JobSpec{
			TraceParent: parent,
			Tasks:       numCombiners,
			Fn: func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
				acc, _ := pl.fold(nil) // empty, so it cannot fail
				for p := task; p < srcCount; p += numCombiners {
					wire, err := ec.Store.FetchFrom(rc.ExecutorStoreName(srcPlace[p]), blockID(round-1, p))
					if err != nil {
						return nil, err
					}
					if acc, err = pl.mergeWire(acc, wire); err != nil {
						return nil, err
					}
				}
				return seal(ec, round, task, acc)
			},
		})
		if err == nil {
			payloads, err = h.Wait()
		}
		if err != nil {
			return zv, err
		}
		place, cur = h.Executors(), numCombiners
	}
	return pl.read(payloads, nil)
}

// intRoot returns ⌈n^(1/k)⌉ computed in integers.
func intRoot(n, k int) int {
	if n <= 1 {
		return 1
	}
	r := 1
	for pow(r, k) < n {
		r++
	}
	return r
}

func pow(b, e int) int {
	p := 1
	for i := 0; i < e; i++ {
		p *= b
		if p < 0 { // overflow guard; callers use tiny exponents
			return 1 << 62
		}
	}
	return p
}

// The generic plane: AggFuncs' own callbacks, every frame serde's
// encoding of U or V, and memory the collector's.

func (f *AggFuncs[T, U, V]) validate(s Strategy) error {
	if f.Zero == nil || f.SeqOp == nil || f.MergeOp == nil || f.SplitOp == nil {
		return fmt.Errorf("core: Aggregate(%v) requires Zero, SeqOp, MergeOp and SplitOp", s)
	}
	if (s == StrategySplit || s == StrategyAllReduce) && (f.ReduceOp == nil || f.ConcatOp == nil) {
		return fmt.Errorf("core: Aggregate(%v) requires ReduceOp and ConcatOp", s)
	}
	return nil
}

func (f *AggFuncs[T, U, V]) fold(data []T) (U, error) {
	acc := f.Zero()
	for _, v := range data {
		acc = f.SeqOp(acc, v)
	}
	return acc, nil
}

func (f *AggFuncs[T, U, V]) merge(a, acc U) U               { return f.MergeOp(a, acc) }
func (f *AggFuncs[T, U, V]) concat(segs []V) V              { return f.ConcatOp(segs) }
func (f *AggFuncs[T, U, V]) release(*ringRun[V], U)         {}
func (f *AggFuncs[T, U, V]) readResult(p []byte) (V, error) { return decode[V](p) }

func (f *AggFuncs[T, U, V]) encode(u U, _ func(int) []byte) ([]byte, error) {
	return serde.Encode(nil, u)
}

func (f *AggFuncs[T, U, V]) encodeResult(v V, _ func(int) []byte) ([]byte, error) {
	return serde.Encode(nil, v)
}

func (f *AggFuncs[T, U, V]) mergeWire(acc U, wire []byte) (U, error) {
	u, err := decode[U](wire)
	if err != nil {
		return acc, err
	}
	return f.MergeOp(acc, u), nil
}

// read decodes frames, and serde's built-in codecs copy out of their
// input (a codec registered for a tree aggregator must too).
func (f *AggFuncs[T, U, V]) read(frames [][]byte, keep func(V) error) (V, error) {
	defer putBufs(frames)
	acc := f.Zero()
	for _, p := range frames {
		var err error
		if acc, err = f.mergeWire(acc, p); err != nil {
			var zv V
			return zv, err
		}
	}
	v := f.SplitOp(acc, 0, 1)
	if keep != nil {
		return v, keep(v)
	}
	return v, nil
}

func (f *AggFuncs[T, U, V]) reduce(ctx context.Context, ec *rdd.ExecContext, u U, nExec, p int, _ bool) (ringRun[V], error) {
	return reduceDense(ctx, ec, u, nExec, p, f.ringOps(), f.SplitOp)
}

func (f *AggFuncs[T, U, V]) readOwned(payloads [][]byte) (V, error) {
	return decodeOwned(payloads, f.ringOps(), f.ConcatOp, denseOf[V])
}

// ringOps is Ops, or serde's for V.
func (f *AggFuncs[T, U, V]) ringOps() collective.Ops[V] {
	if f.Ops != nil {
		return *f.Ops
	}
	return serdeOps[V](f.ReduceOp)
}

// decode is serde's decoding of an X. It leaves p to the garbage
// collector: a generic codec may alias it.
func decode[X any](p []byte) (X, error) {
	v, _, err := serde.Decode(p)
	if err != nil {
		var zx X
		return zx, err
	}
	return v.(X), nil
}

// denseOf assembles a fixed-stride generic aggregate, whose V is
// []float64 (decodeOwned), from its frames.
func denseOf[V any](agg *serde.F64Frames) (V, error) { return any(agg.Dense()).(V), nil }

// putBufs hands frames back to the wire pool.
func putBufs(frames [][]byte) {
	for _, p := range frames {
		transport.PutBuf(p)
	}
}

// serdeOps builds the collective callbacks for a serde-encodable
// segment type. EncodeTo reuses the pooled wire buffer's capacity, so
// the ring loops avoid per-step encode allocations; Decode must stay
// the generic framed path (the concrete codec may retain slices), so no
// fused decode-reduce is offered here — F64-shaped aggregators that
// want the fully fused path use collective.F64Ops directly.
func serdeOps[V any](reduceOp func(V, V) V) collective.Ops[V] {
	return collective.Ops[V]{
		Reduce:   reduceOp,
		Encode:   func(dst []byte, v V) []byte { return serde.MustEncode(dst, v) },
		EncodeTo: func(dst []byte, v V) []byte { return serde.MustEncode(dst[:0], v) },
		Decode:   decode[V],
	}
}

// splitParallel applies splitOp across the executor's cores — the
// reason §3.1 defines splitOp to return one segment per call: "multiple
// threads can split a single aggregator in parallel".
func splitParallel[U, V any](agg U, nSegs, workers int, splitOp func(U, int, int) V) []V {
	segs := make([]V, nSegs)
	if workers < 2 || nSegs < 2 {
		for i := range segs {
			segs[i] = splitOp(agg, i, nSegs)
		}
		return segs
	}
	if workers > nSegs {
		workers = nSegs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nSegs; i += workers {
				segs[i] = splitOp(agg, i, nSegs)
			}
		}(w)
	}
	wg.Wait()
	return segs
}

// Owned-segments frame — what a split ring task returns to the driver:
//
//	count uint32 | count × ( index uint32 | length uint32 | segment bytes )
//
// sorted by index for determinism. With fixed-stride ops (stride > 0,
// collective.Ops.ChunkStride) the segment bytes are the raw element
// words of EncodeChunkTo, which the driver decodes in place into its
// slot of one result vector; otherwise they are ops.Encode's framing.
//
// Ops that can pack (collective.Ops.CanPack) choose a second form per
// segment, from the segment's data, by the ring's own rule — at most
// half the raw bytes. A packed segment sets ownedPacked in its index
// word and its bytes are
//
//	elems uint32 | bitmap, ceil(elems/64) × 8 B | non-zero words × 8 B
//
// (collective/packed.go). A segment that does not pack, and every
// segment of ops that cannot, is byte-identical to the raw form.

// ownedPacked, in an entry's index word, marks a packed segment.
const ownedPacked = 1 << 31

// ErrMalformedFrame classifies a set of owned-segments frames the
// driver could not accept: truncated, listing no segments or a different
// number from another rank's, naming a segment twice or out of range, or
// carrying a packed segment whose bitmap, value count and element count
// disagree.
var ErrMalformedFrame = errors.New("core: malformed owned-segments frame")

// segsElems is the element count of segs.
func segsElems[V any](ops collective.Ops[V], segs []V) int {
	n := 0
	for _, s := range segs {
		n += ops.Elems(s)
	}
	return n
}

// encodeOwned frames a rank's owned segments. With fixed-stride ops the
// frame's size is known up front — one counting pass per segment when
// the ops can pack, or a read of a dense body's candidates — and it is
// encoded once, straight into the buffer draw(size) returns (the task's
// pooled result frame); otherwise it grows by append. A size read from
// candidates may overstate: the frame is then shorter than its draw.
func encodeOwned[V any](owned map[int]V, ops collective.Ops[V], draw func(n int) []byte) []byte {
	// A rank owns one segment per ring channel; the arrays keep the
	// usual case off the heap.
	var idxBuf, packedBuf [16]int
	idxs := idxBuf[:0]
	for i := range owned {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	stride := ops.ChunkStride()
	canPack := ops.CanPack()
	// packed[k] is segment idxs[k]'s packed payload size, 0 for raw.
	packed := packedBuf[:]
	if len(idxs) > len(packed) {
		packed = make([]int, len(idxs))
	}
	var dst []byte
	if stride > 0 {
		size := 4
		for k, i := range idxs {
			n := ops.Elems(owned[i])
			body := stride * n
			if canPack {
				if packed[k] = ops.Packed.ChunkSize(owned[i], 0, n); packed[k] > 0 {
					body = 4 + packed[k]
				}
			}
			size += 8 + body
		}
		dst = draw(size)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idxs)))
	for k, i := range idxs {
		word := uint32(i)
		if packed[k] > 0 {
			word |= ownedPacked
		}
		dst = binary.LittleEndian.AppendUint32(dst, word)
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		switch v := owned[i]; {
		case packed[k] > 0:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(ops.Elems(v)))
			dst = ops.Packed.EncodeChunkTo(dst, v, 0, ops.Elems(v))
		case stride > 0:
			dst = ops.EncodeChunkTo(dst, v, 0, ops.Elems(v))
		default:
			dst = ops.Encode(dst, v)
		}
		binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst
}

// ownedSeg is one segment of a parsed owned-segments frame, aliasing
// the frame. body is nil until the segment has been seen; for a packed
// segment it is the packed payload and elems its declared element
// count.
type ownedSeg struct {
	body   []byte
	packed bool
	elems  int
}

// ownedCount is the number of segments an owned-segments frame lists,
// bounded by what its bytes can hold: every entry takes an 8-byte head.
func ownedCount(p []byte) (int, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("%w: %d-byte frame", ErrMalformedFrame, len(p))
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n) > uint64(len(p)-4)/8 {
		return 0, fmt.Errorf("%w: %d segments in a %d-byte frame", ErrMalformedFrame, n, len(p))
	}
	return int(n), nil
}

// parseOwned validates one owned-segments frame and records each
// segment (aliasing p) in segs by global index.
func parseOwned(p []byte, segs []ownedSeg) error {
	n, err := ownedCount(p)
	if err != nil {
		return err
	}
	p = p[4:]
	for k := 0; k < n; k++ {
		if len(p) < 8 {
			return fmt.Errorf("%w: truncated at entry %d of %d", ErrMalformedFrame, k, n)
		}
		word, segLen := binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:])
		p = p[8:]
		idx := word &^ ownedPacked
		if uint64(idx) >= uint64(len(segs)) {
			return fmt.Errorf("%w: segment index %d out of range [0,%d)", ErrMalformedFrame, idx, len(segs))
		}
		if uint64(segLen) > uint64(len(p)) {
			return fmt.Errorf("%w: segment %d claims %d bytes, %d left", ErrMalformedFrame, idx, segLen, len(p))
		}
		if segs[idx].body != nil {
			return fmt.Errorf("%w: segment %d appears twice", ErrMalformedFrame, idx)
		}
		seg := ownedSeg{body: p[:segLen:segLen]}
		if word&ownedPacked != 0 {
			if segLen < 4 {
				return fmt.Errorf("%w: packed segment %d is %d bytes, shorter than its element count", ErrMalformedFrame, idx, segLen)
			}
			seg.packed, seg.elems, seg.body = true, int(binary.LittleEndian.Uint32(seg.body)), seg.body[4:]
			// The bitmap bounds the element count a frame can claim (and so
			// what the decoder will allocate) by 8× its own bytes.
			if len(seg.body) < 8*serde.PackedWords(seg.elems) {
				return fmt.Errorf("%w: packed segment %d claims %d elems in %d bytes", ErrMalformedFrame, idx, seg.elems, len(seg.body))
			}
		}
		segs[idx] = seg
		p = p[segLen:]
	}
	return nil
}

// decodeOwned reassembles the reduced aggregate from the ring tasks'
// owned-segments frames. The ring's width is read off the frames: each
// rank owns one segment per channel, so every frame must list the same
// number k ≥ 1, and together they must name each of the k·N segments
// once (k·N distinct indices below k·N leave none missing). Fixed-stride
// ops are F64Ops' []float64 words: the segments, in index order, are the
// ranges of one serde.F64Frames reader — by the chunk contract that is
// the concatenation, so concatOp is not consulted — which finish reads
// (denseOf: the dense vector is assembled from it), and the frames, which
// the reader validated whole before finish saw an element and keeps
// nothing of, go back to the wire pool. Otherwise segments are decoded
// one by one and handed to concatOp, and the frames are left to the
// garbage collector because a generic Decode may alias them.
func decodeOwned[V any](payloads [][]byte, ops collective.Ops[V], concatOp func([]V) V, finish func(*serde.F64Frames) (V, error)) (V, error) {
	var zv V
	k := 0
	for i, p := range payloads {
		n, err := ownedCount(p)
		switch {
		case err != nil:
			return zv, err
		case n == 0:
			return zv, fmt.Errorf("%w: frame %d lists no segment", ErrMalformedFrame, i)
		case i > 0 && n != k:
			return zv, fmt.Errorf("%w: frame %d lists %d segments, frame 0 lists %d", ErrMalformedFrame, i, n, k)
		}
		k = n
	}
	nSegs := k * len(payloads)
	segs := make([]ownedSeg, nSegs)
	for _, p := range payloads {
		if err := parseOwned(p, segs); err != nil {
			return zv, err
		}
	}
	if ops.ChunkStride() == 0 {
		vals := make([]V, nSegs)
		for i, s := range segs {
			if s.packed {
				return zv, fmt.Errorf("%w: segment %d is packed but the ops cannot unpack", ErrMalformedFrame, i)
			}
			v, err := ops.Decode(s.body)
			if err != nil {
				return zv, err
			}
			vals[i] = v
		}
		return concatOp(vals), nil
	}
	if _, ok := any(zv).([]float64); !ok || ops.ChunkStride() != 8 {
		return zv, fmt.Errorf("core: fixed-stride ops over %T are not []float64 words", zv)
	}
	agg := serde.ConcatF64()
	defer agg.Release()
	for i, s := range segs {
		var err error
		switch {
		case s.packed && !ops.CanPack():
			err = errors.New("packed but the ops cannot unpack")
		case s.packed:
			err = agg.AppendPacked(s.elems, s.body)
		default:
			err = agg.AppendRaw(s.body)
		}
		if err != nil {
			return zv, fmt.Errorf("%w: segment %d: %w", ErrMalformedFrame, i, err)
		}
	}
	v, err := finish(agg)
	putBufs(payloads)
	return v, err
}
