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

// Reduce folds all elements with f. It errors on an empty RDD.
func Reduce[T any](r *RDD[T], f func(T, T) T) (T, error) {
	var zero T
	payloads, err := r.ctx.RunJob(JobSpec{
		Tasks:  r.parts,
		Policy: r.placementPolicy(),
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			if len(data) == 0 {
				return []byte{0}, nil
			}
			acc := data[0]
			for _, v := range data[1:] {
				acc = f(acc, v)
			}
			return serde.Encode([]byte{1}, acc)
		},
	})
	if err != nil {
		return zero, err
	}
	have := false
	var acc T
	for _, p := range payloads {
		if len(p) < 1 || p[0] == 0 {
			continue
		}
		v, _, err := serde.Decode(p[1:])
		if err != nil {
			return zero, err
		}
		if !have {
			acc, have = v.(T), true
		} else {
			acc = f(acc, v.(T))
		}
	}
	if !have {
		return zero, fmt.Errorf("rdd: Reduce of empty RDD")
	}
	return acc, nil
}

// AggregateOptions tunes TreeAggregate. Most callers should use
// core.Aggregate, the unified aggregation entry point, which dispatches
// here for StrategyTree; this type remains for the engine-level
// primitive itself.
type AggregateOptions struct {
	// Depth is the aggregation tree depth (Spark default 2). Depth 1
	// sends every partition aggregator straight to the driver.
	Depth int
	// Tenant and TraceParent are carried into every stage's JobSpec
	// (see those fields there).
	Tenant      string
	TraceParent trace.SpanContext
}

// TreeAggregate is Spark's treeAggregate: per-partition seqOp folds,
// then rounds of combOp merges through intermediate combiner tasks,
// and a final serial combOp merge of the surviving aggregators in the
// driver. Aggregators move between executors as shuffle blocks and
// reach the driver serialized — the non-scalable reduction Sparker
// replaces.
//
// U must be serde-encodable. zero must return a fresh value each call.
func TreeAggregate[T, U any](r *RDD[T], zero func() U, seqOp func(U, T) U, combOp func(U, U) U, opts AggregateOptions) (U, error) {
	var zu U
	depth := opts.Depth
	if depth == 0 {
		depth = 2
	}
	if depth < 1 {
		return zu, fmt.Errorf("rdd: Depth must be >= 1, got %d", depth)
	}
	ctx := r.ctx
	aggID := ctx.newJobID()
	prefix := fmt.Sprintf("agg/%d/", aggID)
	defer cleanupBlocks(ctx, opts.Tenant, opts.TraceParent, prefix)

	// Stage 1 (agg-compute): fold each partition, leave the aggregator
	// in the executor's block store, return only the block id size ack.
	blockID := func(round, idx int) string {
		return fmt.Sprintf("%sr%d/%d", prefix, round, idx)
	}
	start := time.Now()
	h, err := ctx.SubmitJob(JobSpec{
		Tenant:      opts.Tenant,
		TraceParent: opts.TraceParent,
		Tasks:       r.parts,
		Policy:      r.placementPolicy(),
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			acc := zero()
			for _, v := range data {
				acc = seqOp(acc, v)
			}
			wire, err := serde.Encode(nil, acc)
			if err != nil {
				return nil, err
			}
			ec.Store.PutLocal(blockID(0, task), wire)
			return nil, nil
		},
	})
	if err == nil {
		_, err = h.Wait()
	}
	ctx.RecordPhase(metrics.PhaseAggCompute, time.Since(start), "treeAggregate stage 1")
	if err != nil {
		return zu, err
	}
	// Where each block actually landed: the winning executor of each
	// stage-1 task. Speculation or cache-aware placement can move a
	// task off i %% NumExecutors, so combine rounds must follow the
	// recorded owners rather than recompute the round-robin formula.
	curPlace := h.Executors()

	// Combine rounds (agg-reduce): Spark computes
	// scale = max(2, ceil(parts^(1/depth))) and repartitions by
	// part % numCombiners while it keeps shrinking the count.
	start = time.Now()
	defer func() { ctx.RecordPhase(metrics.PhaseAggReduce, time.Since(start), "treeAggregate combine+driver") }()

	cur := r.parts
	round := 0
	if depth > 1 && cur > 1 {
		scale := intRoot(cur, depth)
		if scale < 2 {
			scale = 2
		}
		for cur > scale+cur/scale {
			numCombiners := (cur + scale - 1) / scale
			srcRound, srcCount := round, cur
			srcPlace := curPlace
			round++
			dstRound := round
			rh, err := ctx.SubmitJob(JobSpec{
				Tenant:      opts.Tenant,
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
						v, _, err := serde.Decode(wire)
						if err != nil {
							return nil, err
						}
						acc = combOp(acc, v.(U))
					}
					out, err := serde.Encode(nil, acc)
					if err != nil {
						return nil, err
					}
					ec.Store.PutLocal(blockID(dstRound, task), out)
					return nil, nil
				},
			})
			if err == nil {
				_, err = rh.Wait()
			}
			if err != nil {
				return zu, err
			}
			curPlace = rh.Executors()
			cur = numCombiners
		}
	}

	// Final serial merge in the driver: fetch each surviving block and
	// deserialize + combine one by one. This serial chain is exactly
	// what grows with scale in Figures 3–4.
	acc := zero()
	for i := 0; i < cur; i++ {
		owner := ctx.ExecutorStoreName(curPlace[i])
		wire, err := ctx.driverStore.FetchFrom(owner, blockID(round, i))
		if err != nil {
			return zu, err
		}
		v, _, err := serde.Decode(wire)
		if err != nil {
			return zu, err
		}
		acc = combOp(acc, v.(U))
	}
	return acc, nil
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

// cleanupBlocks drops a job's shuffle blocks on every executor,
// best-effort.
func cleanupBlocks(ctx *Context, tenant string, parent trace.SpanContext, prefix string) {
	_, _ = ctx.RunOnLiveExecutors(tenant, parent, func(ec *ExecContext, _, _ int) ([]byte, error) {
		ec.Store.DeletePrefix(prefix)
		return nil, nil
	})
	ctx.driverStore.DeletePrefix(prefix)
}
