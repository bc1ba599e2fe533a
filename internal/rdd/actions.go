package rdd

import (
	"encoding/binary"
	"fmt"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/serde"
	"sparker/internal/trace"
)

// Actions materialize RDDs. Every result crosses the executor→driver
// boundary serialized with serde, so element and aggregator types must
// be serde-encodable (built-in, Register, or RegisterSelf).

// encodeSlice frames a []T as count + serde-encoded elements.
func encodeSlice[T any](vs []T) ([]byte, error) {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(vs)))
	var err error
	for _, v := range vs {
		b, err = serde.Encode(b, v)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeSlice is the inverse of encodeSlice.
func decodeSlice[T any](b []byte) ([]T, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("rdd: short slice frame")
	}
	n := int(binary.LittleEndian.Uint32(b))
	off := 4
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		v, used, err := serde.Decode(b[off:])
		if err != nil {
			return nil, err
		}
		off += used
		tv, ok := v.(T)
		if !ok {
			return nil, fmt.Errorf("rdd: decoded %T, want %T", v, *new(T))
		}
		out = append(out, tv)
	}
	return out, nil
}

// Collect returns every element, in partition order.
func Collect[T any](r *RDD[T]) ([]T, error) {
	payloads, err := r.ctx.RunJob(JobSpec{
		Tasks:  r.parts,
		Policy: r.placementPolicy(),
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			return encodeSlice(data)
		},
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, p := range payloads {
		vs, err := decodeSlice[T](p)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// Count returns the number of elements.
func Count[T any](r *RDD[T]) (int64, error) {
	payloads, err := r.ctx.RunJob(JobSpec{
		Tasks:  r.parts,
		Policy: r.placementPolicy(),
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			return binary.LittleEndian.AppendUint64(nil, uint64(len(data))), nil
		},
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range payloads {
		if len(p) < 8 {
			return 0, fmt.Errorf("rdd: short count payload")
		}
		total += int64(binary.LittleEndian.Uint64(p))
	}
	return total, nil
}

// Take returns the first n elements in partition order. It collects
// partition by partition, stopping as soon as n elements are gathered.
func Take[T any](r *RDD[T], n int) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	var out []T
	for part := 0; part < r.parts && len(out) < n; part++ {
		p := part
		payloads, err := r.ctx.RunJob(JobSpec{
			Tasks:     1,
			Placement: []int{r.PlacementOf(p)},
			Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
				data, err := r.Materialize(ec, p)
				if err != nil {
					return nil, err
				}
				if len(data) > n {
					data = data[:n]
				}
				return encodeSlice(data)
			},
		})
		if err != nil {
			return nil, err
		}
		vs, err := decodeSlice[T](payloads[0])
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}

// AggregateOptions tunes TreeAggregate. Most callers should use
// core.Aggregate, the unified aggregation entry point, which dispatches
// here for StrategyTree; this type remains for the engine-level
// primitive itself.
type AggregateOptions struct {
	// Depth is the aggregation tree depth (Spark default 2). Depth 1
	// sends every partition aggregator straight to the driver.
	Depth int
	// TraceParent parents every stage's span (see JobSpec).
	TraceParent trace.SpanContext
}

// TreeHooks are TreeAggregate's typed fast paths for an aggregator
// whose block frames allow more than serde's decode-then-combOp. Encode,
// MergeWire, Recycle and Finish are required, Fold is optional; nil
// hooks are TreeAggregate as Spark has it: serde.Encode, serde.Decode
// then combOp, nothing recycled, and the driver's serial merge.
//
// draw, passed to Fold and Encode, returns an empty buffer with room for
// n bytes; a last-round frame built in one draw leaves without a copy.
type TreeHooks[T, U any] struct {
	// Fold, when non-nil, folds a stage-1 task's elements straight to
	// their block frame. ok true promises the frame holds Encode's bytes
	// for the accumulator zero and seqOp over elems would make; the task
	// sends it on and calls none of zero, seqOp, Encode and Recycle. ok
	// false declines, and the task folds as it would without Fold; an
	// error fails the task. Combine rounds and the driver never call it.
	Fold func(elems []T, draw func(n int) []byte) (frame []byte, ok bool, err error)
	// Encode returns u's block frame; elems are the elements a stage-1
	// task folded into u, nil for a combine round's accumulator.
	Encode func(u U, elems []T, draw func(n int) []byte) ([]byte, error)
	// MergeWire merges one block frame into a combine task's acc and
	// returns the result, as combOp(acc, decoded block) would, without a
	// decoded value. An invalid frame is an error.
	MergeWire func(acc U, wire []byte) (U, error)
	// Recycle receives every accumulator a stage-1 or combine task made
	// with zero once Encode has returned.
	Recycle func(U)
	// Finish is the driver's end: it takes the last round's frames in
	// task order and returns their serial merge from zero in that order,
	// which TreeAggregate returns. The frames are its own, to give back
	// to the wire pool once read.
	Finish func(frames [][]byte) (U, error)
}

// TreeAggregate is Spark's treeAggregate: per-partition seqOp folds,
// then rounds of combOp merges through intermediate combiner tasks,
// and a final serial merge in the driver, in task order. Each round but
// the last leaves its aggregators in the executors' block stores for
// the next to fetch; the last round's come home as its task results, of
// any size (Spark's 1 MiB switch to fetched results is not modelled).
// Aggregators reach the driver serialized — the non-scalable reduction
// Sparker replaces. hooks, when non-nil, replaces the serde path, and
// the driver hands the last round's frames to hooks.Finish: core reads
// a []float64 sum from them in one tile-wise pass, still a serial merge
// in task order, and the caller's update can consume it in that pass.
//
// U must be serde-encodable. zero must return a fresh value each call.
func TreeAggregate[T, U any](r *RDD[T], zero func() U, seqOp func(U, T) U, combOp func(U, U) U, opts AggregateOptions, hooks *TreeHooks[T, U]) (U, error) {
	var zu U
	depth := opts.Depth
	if depth == 0 {
		depth = 2
	}
	if depth < 1 {
		return zu, fmt.Errorf("rdd: Depth must be >= 1, got %d", depth)
	}
	if hooks == nil {
		mergeWire := func(acc U, wire []byte) (U, error) {
			v, _, err := serde.Decode(wire)
			if err != nil {
				return acc, err
			}
			return combOp(acc, v.(U)), nil
		}
		hooks = &TreeHooks[T, U]{
			Encode:    func(u U, _ []T, _ func(int) []byte) ([]byte, error) { return serde.Encode(nil, u) },
			MergeWire: mergeWire,
			Recycle:   func(U) {},
			// A value serde decodes may alias its frame: no frame goes
			// back to the wire pool.
			Finish: func(frames [][]byte) (U, error) {
				acc := zero()
				for _, p := range frames {
					var err error
					if acc, err = mergeWire(acc, p); err != nil {
						return zu, err
					}
				}
				return acc, nil
			},
		}
	}
	ctx := r.ctx
	prefix := fmt.Sprintf("agg/%d/", ctx.newJobID())
	// The round plan, fixed before stage 1: Spark computes scale =
	// max(2, ceil(parts^(1/depth))) and adds a round of ceil(cur/scale)
	// combiners while that keeps shrinking the count.
	var combiners []int
	for cur, scale := r.parts, max(2, intRoot(r.parts, depth)); depth > 1 && cur > scale+cur/scale; {
		cur = (cur + scale - 1) / scale
		combiners = append(combiners, cur)
	}
	last := len(combiners)
	if last > 0 {
		// Best effort: an unreachable executor's blocks go with it.
		defer ctx.RunOnLiveExecutors(opts.TraceParent, func(ec *ExecContext, _, _ int) ([]byte, error) {
			ec.Store.DeletePrefix(prefix)
			return nil, nil
		})
	}
	blockID := func(round, idx int) string {
		return fmt.Sprintf("%sr%d/%d", prefix, round, idx)
	}
	// The last round's frames are built in the task's result buffer and
	// returned; an earlier round's are stored for the next round's fetches.
	draw := func(ec *ExecContext, round int) func(int) []byte {
		if round == last {
			return ec.ResultBuf
		}
		return func(n int) []byte { return make([]byte, 0, n) }
	}
	seal := func(ec *ExecContext, round, task int, frame []byte, err error) ([]byte, error) {
		if err != nil || round == last {
			return frame, err
		}
		ec.Store.PutLocal(blockID(round, task), frame)
		return nil, nil
	}

	// Stage 1 (agg-compute): fold each partition to its frame.
	start := time.Now()
	h, err := ctx.SubmitJob(JobSpec{
		TraceParent: opts.TraceParent,
		Tasks:       r.parts,
		Policy:      r.placementPolicy(),
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			if hooks.Fold != nil {
				if wire, ok, err := hooks.Fold(data, draw(ec, 0)); ok || err != nil {
					return seal(ec, 0, task, wire, err)
				}
			}
			acc := zero()
			for _, v := range data {
				acc = seqOp(acc, v)
			}
			wire, err := hooks.Encode(acc, data, draw(ec, 0))
			hooks.Recycle(acc)
			return seal(ec, 0, task, wire, err)
		},
	})
	var payloads [][]byte
	if err == nil {
		payloads, err = h.Wait()
	}
	ctx.RecordPhase(metrics.PhaseAggCompute, time.Since(start), "treeAggregate stage 1")
	if err != nil {
		return zu, err
	}
	// Where each block actually landed: the winning executor of each
	// task. Speculation or cache-aware placement can move a task off
	// i %% NumExecutors, so combine rounds must follow the recorded
	// owners rather than recompute the round-robin formula.
	curPlace := h.Executors()

	// Combine rounds (agg-reduce), each repartitioning the previous
	// round's blocks by part % numCombiners.
	start = time.Now()
	defer func() { ctx.RecordPhase(metrics.PhaseAggReduce, time.Since(start), "treeAggregate combine+driver") }()
	cur := r.parts
	for i, numCombiners := range combiners {
		srcRound, srcCount, srcPlace, round := i, cur, curPlace, i+1
		rh, err := ctx.SubmitJob(JobSpec{
			TraceParent: opts.TraceParent,
			Tasks:       numCombiners,
			Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
				acc := zero()
				for p := task; p < srcCount; p += numCombiners {
					owner := ctx.ExecutorStoreName(srcPlace[p])
					wire, err := ec.Store.FetchFrom(owner, blockID(srcRound, p))
					if err != nil {
						return nil, err
					}
					if acc, err = hooks.MergeWire(acc, wire); err != nil {
						return nil, err
					}
				}
				out, err := hooks.Encode(acc, nil, draw(ec, round))
				hooks.Recycle(acc)
				return seal(ec, round, task, out, err)
			},
		})
		if err == nil {
			payloads, err = rh.Wait()
		}
		if err != nil {
			return zu, err
		}
		curPlace = rh.Executors()
		cur = numCombiners
	}

	// Final serial merge in the driver, in task order, of the frames the
	// last round returned. This serial chain is exactly what grows with
	// scale in Figures 3–4.
	return hooks.Finish(payloads)
}

// intRoot returns ceil(n^(1/k)) computed in integers.
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
