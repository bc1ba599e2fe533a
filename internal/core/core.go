// Package core implements Sparker's contribution: the Split
// Aggregation Interface (SAI) and In-Memory Merge (IMM) on top of the
// rdd engine.
//
// Aggregate is the one entry point; its Strategy option selects among
// the reductions of the paper's Figure 16 comparison:
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

// immState is the per-executor shared aggregator for one aggregation.
type immState[U any] struct {
	agg   U
	sup   support // of agg, when the ring will use it
	n     int     // > 0: agg is compact (compact.go), the values at sup's set bits of n elements
	tasks int     // number of task results merged in
}

// support is what core knows of an aggregator's possibly non-zero
// elements (AggFuncs.Support): a bitmap over SplitOp's concatenated
// segments, bit i%64 of word i/64 for element i. The zero value knows
// nothing, so the ring scans; known with nil bits means every element is
// still +0.0. borrowed bits are an element's own bitmap, which core only
// reads; core copies them before the first write (add, words).
type support struct {
	bits     []uint64
	known    bool
	borrowed bool
}

// add ORs one element's support into s — borrowing it, the first time.
// A nil support, or one whose length disagrees, makes s unknown.
func (s *support) add(b []uint64) {
	switch {
	case !s.known:
	case b == nil || s.bits != nil && len(b) != len(s.bits):
		*s = support{}
	case s.bits == nil:
		s.bits, s.borrowed = b, true
	default:
		s.own()
		for i, w := range b {
			s.bits[i] |= w
		}
	}
}

// own makes s's bits its own copy.
func (s *support) own() {
	if s.borrowed {
		s.bits, s.borrowed = slices.Clone(s.bits), false
	}
}

// merge folds another aggregator's support into s (MergeOp).
func (s *support) merge(o support) {
	if !o.known {
		*s = support{}
	} else if o.bits != nil {
		s.add(o.bits)
	}
}

// view is the bitmap of an aggregator of elems elements, for reading —
// all clear for an aggregator that is still Zero — or nil when s is
// unknown or sized for something else.
func (s *support) view(elems int) []uint64 {
	n := serde.PackedWords(elems)
	switch {
	case !s.known || s.bits != nil && len(s.bits) != n:
		return nil
	case s.bits == nil:
		s.bits = make([]uint64, n)
	}
	return s.bits
}

// words is view's bitmap as one the ring may also write: s's own copy.
func (s *support) words(elems int) []uint64 {
	if s.view(elems) == nil {
		return nil
	}
	s.own()
	return s.bits
}

// foldPartition is one task's fold of its partition, the IMM stage's
// and the tree's stage 1's: the support of its elements ORed
// (AggFuncs.Support) when Ops pack — only they read it: the ring, and
// the []float64 frames (f64Wire) — then the compact fold (compactFold),
// or Zero and SeqOp over data when that declines. n > 0 marks a compact
// accumulator of n elements (immState).
func (f *AggFuncs[T, U, V]) foldPartition(data []T) (acc U, sup support, n int, err error) {
	track := f.Support != nil && f.Ops != nil && f.Ops.CanPack()
	sup = support{known: track}
	for i := 0; track && i < len(data); i++ {
		sup.add(f.Support(data[i]))
	}
	vals, n, compact, err := f.compactFold(data, sup.bits)
	switch {
	case err != nil:
		return acc, sup, 0, err
	case compact:
		return any(vals).(U), sup, n, nil
	}
	acc = f.Zero()
	for _, v := range data {
		acc = f.SeqOp(acc, v)
	}
	return acc, sup, 0, nil
}

// encodeFrame is the tree frame of an accumulator that the caller is
// done with (a tree block, or an IMM gather result), into draw's
// buffer: a compact one (n > 0) is written from its values when its
// support settles the packed form, and is otherwise expanded — exact,
// by Fold's contract — and encoded as a dense one is (encodeAgg). The
// accumulator's memory goes back to its free list.
func (f *AggFuncs[T, U, V]) encodeFrame(u U, sup support, n int, draw func(int) []byte) ([]byte, error) {
	if n > 0 {
		vals := any(u).([]float64)
		if frame, ok := serde.EncodeF64Support(draw, n, sup.bits, vals); ok {
			compactVals.put(vals)
			return frame, nil
		}
		u = f.expand(u, sup, n)
	}
	wire, err := f.encodeAgg(u, sup, draw)
	f.recycle(u)
	return wire, err
}

// runIMMStage executes the reduced-result stage: every partition is
// folded with seqOp into its own accumulator; the first accumulator to
// finish on an executor is adopted as that executor's resident
// aggregator and the later ones are merged into it with mergeOp and
// handed back through recycle. Adoption replaces merging the first
// accumulator into a fresh zero(): the association order of the
// accumulators is unchanged (arrival order), only the identity element
// at its head is gone. A task whose Fold accepts (compactFold) leaves a
// compact accumulator; a merge expands a compact one into zero() first,
// which is exact, so the merges are the dense path's. On any task
// failure the stage's shared values are cleared on every executor and
// the whole stage re-submitted (§3.2). Afterwards each executor that ran
// a task holds exactly one aggregator under key; held reports which
// executors those are. Each executor's support (foldPartition) is
// folded beside its aggregator.
func runIMMStage[T, U, V any](r *rdd.RDD[T], key string, parent trace.SpanContext, fns *AggFuncs[T, U, V]) (held map[int]bool, err error) {
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
			acc, sup, n, err := fns.foldPartition(data)
			if err != nil {
				return nil, err
			}
			ec.MutObjs.GetOrCreate(key, func() any { return &immState[U]{} }).Update(func(v any) any {
				st := v.(*immState[U])
				if st.tasks == 0 {
					st.agg, st.sup, st.n = acc, sup, n
				} else {
					if st.n > 0 {
						st.agg, st.n = fns.expand(st.agg, st.sup, st.n), 0
					}
					if n > 0 {
						acc = fns.expand(acc, sup, n)
					}
					st.agg = fns.MergeOp(st.agg, acc)
					st.sup.merge(sup)
					fns.recycle(acc)
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
// executor that ran no task of the IMM stage contributes zero(); one
// that did (held) and has no aggregator has lost it — it was already
// taken, or the executor was replaced since — which must fail the task
// rather than pass a zero off as its contribution. The aggregator's
// support comes with it; a Zero() aggregator's is known and empty. n > 0
// marks a compact aggregator of n elements (immState).
func takeAgg[T, U, V any](ec *rdd.ExecContext, key string, held map[int]bool, fns *AggFuncs[T, U, V]) (U, support, int, error) {
	if obj := ec.MutObjs.Get(key); obj != nil {
		ec.MutObjs.Remove(key)
		st := obj.Value().(*immState[U])
		return st.agg, st.sup, st.n, nil
	}
	if held[ec.ID] {
		var zu U
		return zu, support{}, 0, fmt.Errorf("core: executor %d no longer holds aggregator %s: %w", ec.ID, key, ErrMembershipChanged)
	}
	return fns.Zero(), support{known: fns.Support != nil}, 0, nil
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
// reduceFrames to merge serially. The reduction remains tree-shaped
// (driver-bound); only the serialization volume shrinks from one result
// per task to one per executor.
func gatherIMM[T, U, V any](ctx *rdd.Context, parent trace.SpanContext, key string, held map[int]bool, fns *AggFuncs[T, U, V]) ([][]byte, error) {
	live := slices.Clone(ctx.LiveExecutors())
	if err := requireHeld(held, live); err != nil {
		return nil, err
	}
	h, err := ctx.SubmitJob(rdd.JobSpec{
		Tasks:       len(live),
		Placement:   live,
		TraceParent: parent,
		Fn: func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			agg, sup, n, err := takeAgg(ec, key, held, fns)
			if err != nil {
				return nil, err
			}
			return fns.encodeFrame(agg, sup, n, ec.ResultBuf)
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
// (reduceFrames) — the non-scalable reduction Sparker replaces. The
// round plan is fixed before stage 1: Spark computes scale = max(2,
// ⌈parts^(1/depth)⌉) and adds a round of ⌈cur/scale⌉ combiners while
// that keeps shrinking the count. Each round but the last stores its
// frames in the executors' block stores for the next to fetch, and a
// cleanup job drops them; the last round's are built in the task's
// result buffer and come home as its results, of any size (Spark's
// 1 MiB switch to fetched results is not modelled).
func runTree[T, U, V any](r *rdd.RDD[T], parent trace.SpanContext, fns *AggFuncs[T, U, V], depth int) (U, error) {
	var zu U
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
	seal := func(ec *rdd.ExecContext, round, task int, u U, sup support, n int) ([]byte, error) {
		if round == last {
			return fns.encodeFrame(u, sup, n, ec.ResultBuf)
		}
		frame, err := fns.encodeFrame(u, sup, n, nil)
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
			acc, sup, n, err := fns.foldPartition(data)
			if err != nil {
				return nil, err
			}
			return seal(ec, 0, task, acc, sup, n)
		},
	})
	var payloads [][]byte
	if err == nil {
		payloads, err = h.Wait()
	}
	rc.RecordPhase(metrics.PhaseAggCompute, time.Since(start), "treeAggregate stage 1")
	if err != nil {
		return zu, err
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
				acc := fns.Zero()
				for p := task; p < srcCount; p += numCombiners {
					wire, err := ec.Store.FetchFrom(rc.ExecutorStoreName(srcPlace[p]), blockID(round-1, p))
					if err != nil {
						return nil, err
					}
					if acc, err = fns.mergeWire(acc, wire); err != nil {
						return nil, err
					}
				}
				return seal(ec, round, task, acc, support{}, 0)
			},
		})
		if err == nil {
			payloads, err = h.Wait()
		}
		if err != nil {
			return zu, err
		}
		place, cur = h.Executors(), numCombiners
	}
	return fns.reduceFrames(payloads, nil)
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

// f64Wire reports whether the tree strategies' frames are []float64
// sums: U and V are []float64 and Ops packs, which asserts IEEE addition
// from +0.0 (collective.PackedOps). Adding a frame into the driver's
// accumulator from the wire (serde.DecodeReduceF64) then gives the bits
// of decode-then-MergeOp.
func (f *AggFuncs[T, U, V]) f64Wire() bool {
	_, ok := any(f).(*AggFuncs[T, []float64, []float64])
	return ok && f.Ops != nil && f.Ops.CanPack()
}

// encodeAgg is u's tree frame (a block, or an IMM gather result),
// encoded from sup when f64Wire, into draw's buffer (nil: a fresh one).
func (f *AggFuncs[T, U, V]) encodeAgg(u U, sup support, draw func(int) []byte) ([]byte, error) {
	if f.f64Wire() {
		s := any(u).([]float64)
		return serde.EncodeF64(draw, s, sup.view(len(s)))
	}
	return serde.Encode(nil, u)
}

// encodeResult is allreduce rank 0's frame of the reduced v, written
// into draw's buffer (the task's pooled result frame) when f64Wire.
func (f *AggFuncs[T, U, V]) encodeResult(v V, draw func(int) []byte) ([]byte, error) {
	if f.f64Wire() {
		return serde.EncodeF64(draw, any(v).([]float64), nil)
	}
	return serde.Encode(nil, v)
}

// mergeWire merges one tree frame into acc (a combine task's).
func (f *AggFuncs[T, U, V]) mergeWire(acc U, wire []byte) (U, error) {
	if f.f64Wire() {
		return acc, serde.DecodeReduceF64(any(acc).([]float64), wire)
	}
	v, _, err := serde.Decode(wire)
	if err != nil {
		return acc, err
	}
	return f.MergeOp(acc, v.(U)), nil
}

// reduceFrames is the driver's end of the tree strategies: frames are
// the tree's last round or the IMM gather, in task order, and the
// result is their serial merge from Zero in that order. An f64Wire
// aggregate is not assembled but read from its frames (serde.SumF64),
// by Finish or, with Finish nil, into a dense vector; otherwise each
// frame is decoded and merged with MergeOp. keep, when set, is handed
// the dense aggregate first (a degraded allreduce replicates it). The
// frames go back to the wire pool once read: the f64 path adds from the
// bytes, and serde's built-in codecs copy out of their input (a codec
// registered for a tree aggregator must too).
func (f *AggFuncs[T, U, V]) reduceFrames(frames [][]byte, keep func(U) error) (U, error) {
	var zu U
	defer func() {
		for _, p := range frames {
			transport.PutBuf(p)
		}
	}()
	if !f.f64Wire() {
		acc := f.Zero()
		for _, p := range frames {
			var err error
			if acc, err = f.mergeWire(acc, p); err != nil {
				return zu, err
			}
		}
		if keep != nil {
			return acc, keep(acc)
		}
		return acc, nil
	}
	agg, err := serde.SumF64(frames)
	if err != nil {
		return zu, err
	}
	defer agg.Release()
	if keep != nil {
		u := any(agg.Dense()).(U)
		if err := keep(u); err != nil || f.Finish == nil {
			return u, err
		}
	}
	v, err := finishF64(agg, f.Finish)
	return any(v).(U), err
}

// result is what Aggregate returns for the tree strategies' aggregate
// u: Finish's result as it is, or the aggregate viewed as a segment.
func (f *AggFuncs[T, U, V]) result(u U) V {
	if f.Finish != nil {
		return any(u).(V)
	}
	return f.SplitOp(u, 0, 1)
}

// finishF64 ends a reduction read from its frames: finish reads it, or
// with finish nil the dense aggregate is assembled from it. V is
// []float64.
func finishF64[V any](agg *serde.F64Frames, finish func(*serde.F64Frames) (V, error)) (V, error) {
	if finish != nil {
		return finish(agg)
	}
	return any(agg.Dense()).(V), nil
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
		Decode: func(src []byte) (V, error) {
			val, _, err := serde.Decode(src)
			if err != nil {
				var z V
				return z, err
			}
			return val.(V), nil
		},
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
// the ops can pack, or a read of the segment's share of sup, the
// support over the ring's segments it left (nil: count), segment i's
// first bit being first(i) — and it is encoded once, straight into the
// buffer draw(size) returns (the task's pooled result frame); otherwise
// it grows by append. A size read from sup may overstate: the frame is
// then shorter than its draw.
func encodeOwned[V any](owned map[int]V, ops collective.Ops[V], sup []uint64, first func(i int) int, draw func(n int) []byte) []byte {
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
	// bit is segment i's first bit in sup.
	bit := func(i int) int {
		if sup == nil {
			return 0
		}
		return first(i)
	}
	var dst []byte
	if stride > 0 {
		size := 4
		for k, i := range idxs {
			n := ops.Elems(owned[i])
			body := stride * n
			if canPack {
				if packed[k] = ops.Packed.ChunkSize(owned[i], 0, n, sup, bit(i)); packed[k] > 0 {
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
			dst = ops.Packed.EncodeChunkTo(dst, v, 0, ops.Elems(v), sup, bit(i))
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
// (nil: the dense vector is assembled from it), and the frames, which
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
	v, err := finishF64(agg, finish)
	for _, p := range payloads {
		transport.PutBuf(p)
	}
	return v, err
}
