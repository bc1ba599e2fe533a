// Package core implements Sparker's contribution: the Split
// Aggregation Interface (SAI) and In-Memory Merge (IMM) on top of the
// rdd engine.
//
// Aggregate is the one entry point; its Strategy option selects among
// the reductions of the paper's Figure 16 comparison:
//
//   - StrategyTree — the Spark baseline (rdd.TreeAggregate): per-task
//     serialized results, combiner stages, serial driver merge.
//   - StrategyIMM — tree aggregation with in-memory merge: tasks on the
//     same executor merge into a shared aggregator inside the mutable
//     object manager before anything is serialized, so only one result
//     per executor crosses the wire (§3.2, Figure 8).
//   - StrategySplit — the full design (§3.1, Figure 6): IMM leaves one
//     aggregator per executor, a statically placed stage (SpawnRDD,
//     §4.3) splits each into P×N segments with SplitOp and runs ring
//     reduce-scatter over the parallel directed ring, and the driver
//     gathers the reduced segments and reassembles them with ConcatOp.
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

	"sparker/internal/collective"
	"sparker/internal/rdd"
	"sparker/internal/serde"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// immState is the per-executor shared aggregator for one aggregation.
type immState[U any] struct {
	agg   U
	tasks int // number of task results merged in
}

// runIMMStage executes the reduced-result stage: every partition is
// folded with seqOp into its own accumulator; the first accumulator to
// finish on an executor is adopted as that executor's resident
// aggregator and the later ones are merged into it with mergeOp and
// handed back through recycle. Adoption replaces merging the first
// accumulator into a fresh zero(): the association order of the
// accumulators is unchanged (arrival order), only the identity element
// at its head is gone. On any task failure the stage's shared values
// are cleared on every executor and the whole stage re-submitted
// (§3.2). Afterwards each executor that ran a task holds exactly one
// aggregator under key; held reports which executors those are.
func runIMMStage[T, U, V any](r *rdd.RDD[T], key string, parent trace.SpanContext, tenant string, fns *AggFuncs[T, U, V]) (held map[int]bool, err error) {
	h, err := r.Context().SubmitJob(rdd.JobSpec{
		Tenant:      tenant,
		Tasks:       r.NumPartitions(),
		TraceParent: parent,
		Fn: func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			// Fold locally first so executor cores compute in parallel;
			// only the final merge serializes on the shared object.
			acc := fns.Zero()
			for _, v := range data {
				acc = fns.SeqOp(acc, v)
			}
			ec.MutObjs.GetOrCreate(key, func() any { return &immState[U]{} }).Update(func(v any) any {
				st := v.(*immState[U])
				if st.tasks == 0 {
					st.agg = acc
				} else {
					st.agg = fns.MergeOp(st.agg, acc)
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
// rather than pass a zero off as its contribution.
func takeAgg[T, U, V any](ec *rdd.ExecContext, key string, held map[int]bool, fns *AggFuncs[T, U, V]) (U, error) {
	if obj := ec.MutObjs.Get(key); obj != nil {
		ec.MutObjs.Remove(key)
		return obj.Value().(*immState[U]).agg, nil
	}
	if held[ec.ID] {
		var zu U
		return zu, fmt.Errorf("core: executor %d no longer holds aggregator %s: %w", ec.ID, key, ErrMembershipChanged)
	}
	return fns.Zero(), nil
}

// cleanupIMM drops a failed attempt's resident aggregators everywhere.
// Only failure paths need it: the ring task and the IMM gather task
// take their executor's aggregator when they start.
func cleanupIMM(ctx *rdd.Context, tenant string, parent trace.SpanContext, prefix string) {
	// Best effort: an executor the job cannot reach is being evicted,
	// and its objects go with it.
	_, _ = ctx.RunOnLiveExecutors(tenant, parent, func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		ec.MutObjs.ClearPrefix(prefix)
		return nil, nil
	})
}

// gatherIMM is StrategyIMM's second stage: every executor serializes
// the one aggregator the reduced-result stage left it, and the driver
// merges them serially in executor order. The reduction remains
// tree-shaped (driver-bound); only the serialization volume shrinks
// from one result per task to one per executor.
func gatherIMM[T, U, V any](ctx *rdd.Context, tenant string, parent trace.SpanContext, key string, held map[int]bool, fns *AggFuncs[T, U, V]) (U, error) {
	var zu U
	payloads, err := ctx.RunOnLiveExecutors(tenant, parent, func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		agg, err := takeAgg(ec, key, held, fns)
		if err != nil {
			return nil, err
		}
		wire, err := serde.Encode(nil, agg)
		fns.recycle(agg)
		return wire, err
	})
	if err != nil {
		return zu, err
	}
	acc := fns.Zero()
	for _, p := range payloads {
		v, _, err := serde.Decode(p)
		if err != nil {
			return zu, err
		}
		acc = fns.MergeOp(acc, v.(U))
	}
	return acc, nil
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

// ErrMalformedFrame classifies an owned-segments frame the driver could
// not accept: truncated, naming a segment twice or out of range, or
// carrying a packed segment whose bitmap, value count and element count
// disagree.
var ErrMalformedFrame = errors.New("core: malformed owned-segments frame")

// encodeOwned frames a rank's owned segments. With fixed-stride ops the
// frame's exact size is known up front — one counting pass per segment
// when the ops can pack — and it is encoded once, straight into the
// buffer draw(size) returns (the task's pooled result frame); otherwise
// it grows by append.
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

// parseOwned validates one owned-segments frame and records each
// segment (aliasing p) in segs by global index.
func parseOwned(p []byte, segs []ownedSeg) error {
	if len(p) < 4 {
		return fmt.Errorf("%w: %d-byte frame", ErrMalformedFrame, len(p))
	}
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	for k := uint32(0); k < n; k++ {
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
			if len(seg.body) < 8*collective.PackedWords(seg.elems) {
				return fmt.Errorf("%w: packed segment %d claims %d elems in %d bytes", ErrMalformedFrame, idx, seg.elems, len(seg.body))
			}
		}
		segs[idx] = seg
		p = p[segLen:]
	}
	return nil
}

// decodeOwned reassembles the reduced aggregate from the ring tasks'
// owned-segments frames. On the fixed-stride path every segment is
// decoded once, into its slot of one result vector — by the chunk
// contract that is the concatenation, so concatOp is not consulted —
// and the frames, which the chunk decoders may not retain, go back to
// the wire pool. Otherwise segments are decoded one by one and handed to
// concatOp, and the frames are left to the garbage collector because a
// generic Decode may alias them.
func decodeOwned[V any](payloads [][]byte, nSegs int, ops collective.Ops[V], concatOp func([]V) V) (V, error) {
	var zv V
	segs := make([]ownedSeg, nSegs)
	for _, p := range payloads {
		if err := parseOwned(p, segs); err != nil {
			return zv, err
		}
	}
	stride := ops.ChunkStride()
	total := 0
	for i := range segs {
		s := &segs[i]
		switch {
		case s.body == nil:
			return zv, fmt.Errorf("core: segment %d missing after reduce-scatter", i)
		case s.packed:
			if !ops.CanPack() {
				return zv, fmt.Errorf("%w: segment %d is packed but the ops cannot unpack", ErrMalformedFrame, i)
			}
		case stride > 0:
			if len(s.body)%stride != 0 {
				return zv, fmt.Errorf("%w: segment %d is %d bytes, stride %d", ErrMalformedFrame, i, len(s.body), stride)
			}
			s.elems = len(s.body) / stride
		}
		total += s.elems
	}
	if stride == 0 {
		vals := make([]V, nSegs)
		for i, s := range segs {
			v, err := ops.Decode(s.body)
			if err != nil {
				return zv, err
			}
			vals[i] = v
		}
		return concatOp(vals), nil
	}
	out := ops.MakeSegment(total)
	off := 0
	for i, s := range segs {
		if s.packed {
			if err := ops.Packed.DecodeChunkInto(out, off, s.elems, s.body); err != nil {
				return zv, fmt.Errorf("%w: segment %d: %w", ErrMalformedFrame, i, err)
			}
		} else if err := ops.DecodeChunkInto(out, off, s.body); err != nil {
			return zv, err
		}
		off += s.elems
	}
	for _, p := range payloads {
		transport.PutBuf(p)
	}
	return out, nil
}
