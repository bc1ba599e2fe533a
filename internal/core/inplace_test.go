package core

// Tests for the in-place split-aggregation path: the ring reducing in
// the resident aggregator (view split), adoption of the first
// accumulator, aggregator recycling, the owned-segments frame codec,
// and the fallback that recomputes after a ring that died half-reduced.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparker/internal/collective"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/serde"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// poisonPool is a Zero/Recycle pair that catches use after recycle: a
// recycled aggregator is filled with NaN and handed out again (zeroed)
// by the next Zero, so any engine read of an aggregator it has already
// given back surfaces as NaN in the result, and any aliasing between a
// live and a recycled aggregator corrupts a sum.
type poisonPool struct {
	mu       sync.Mutex
	free     [][]float64
	recycled int
}

func (p *poisonPool) zero(dim int) func() []float64 {
	return func() []float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if n := len(p.free); n > 0 {
			v := p.free[n-1]
			p.free = p.free[:n-1]
			clear(v)
			return v
		}
		return make([]float64, dim)
	}
}

func (p *poisonPool) recycle(v []float64) {
	for i := range v {
		v[i] = math.NaN()
	}
	p.mu.Lock()
	p.free = append(p.free, v)
	p.recycled++
	p.mu.Unlock()
}

// orderSensitiveSeqOp adds values whose float64 sum depends on the
// order of the additions (a large and a tiny term per element), so a
// change in who merges into whom — not just in the set merged — would
// show in the low bits.
func orderSensitiveSeqOp(acc []float64, v int64) []float64 {
	for d := range acc {
		acc[d] += float64(v)*1e15 + 1/float64(v+int64(d)+3)
	}
	return acc
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestInPlaceSplitEquivalence: split by view ≡ split by copy ≡ tree,
// bit for bit, for 1 and 3 partitions per executor and 1 and 2 cores,
// with and without the fixed-stride F64Ops gather, with recycled
// aggregators poisoned. The data is integer-valued so that every
// association order yields the same float64s — which is what makes the
// tree comparable at all.
//
// Adoption (the first accumulator to finish becomes the resident
// aggregator) changes who merges into whom, not the association order:
// before, an executor folded ((0 + a₁) + a₂) + a₃, now (a₁ + a₂) + a₃,
// and 0 + a₁ is a₁ bit for bit. The order-sensitive half of the test
// checks exactly that against a sequential left fold, on one core,
// where the arrival order on an executor is the partition order.
func TestInPlaceSplitEquivalence(t *testing.T) {
	const execs, samples, dim, par = 3, 240, 101, 4 // par: the context's RingParallelism
	f64 := collective.F64Ops()
	for _, perExec := range []int{1, 3} {
		for _, cores := range []int{1, 2} {
			t.Run(fmt.Sprintf("parts=%dx%d/cores=%d", execs, perExec, cores), func(t *testing.T) {
				ctx := testContext(t, execs, cores)
				parts := execs * perExec
				r := vectorRDD(ctx, samples, parts)

				funcs := func(seqOp func([]float64, int64) []float64, split func([]float64, int, int) []float64, ops *collective.Ops[[]float64], pool *poisonPool) AggFuncs[int64, []float64, []float64] {
					f := AggFuncs[int64, []float64, []float64]{
						Zero: vecZero(dim), SeqOp: seqOp, MergeOp: AddF64,
						SplitOp: split, ReduceOp: AddF64, ConcatOp: ConcatSlices[float64], Ops: ops,
					}
					if pool != nil {
						f.Zero, f.Recycle = pool.zero(dim), pool.recycle
					}
					return f
				}
				run := func(name string, f AggFuncs[int64, []float64, []float64], opts ...AggOption) []float64 {
					t.Helper()
					got, err := Aggregate(fillChannels(context.Background(), dim, par), r, f, opts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return got
				}
				// Every ring run, F64Ops ones included, rides all par channels.
				wantSteps := int64(0)
				checkSteps := func(name string, runs int) {
					t.Helper()
					wantSteps += int64(runs * execs * par * (execs - 1))
					if got := ringSteps(ctx); got != wantSteps {
						t.Fatalf("%s: %d ring steps, want %d (%d channels)", name, got, wantSteps, par)
					}
				}

				tree := run("tree", funcs(vecSeqOp, SplitSliceCopy[float64], nil, nil), WithStrategy(StrategyTree))
				requireExact(t, tree, expectedVector(samples, dim))
				pool := &poisonPool{}
				for _, c := range []struct {
					name  string
					split func([]float64, int, int) []float64
					ops   *collective.Ops[[]float64]
				}{
					{"view/serde", SplitSlice[float64], nil},
					{"copy/serde", SplitSliceCopy[float64], nil},
					{"view/f64", SplitSlice[float64], &f64},
					{"copy/f64", SplitSliceCopy[float64], &f64},
				} {
					bitsEqual(t, c.name, run(c.name, funcs(vecSeqOp, c.split, c.ops, pool)), tree)
					bitsEqual(t, c.name+"/allreduce", run(c.name, funcs(vecSeqOp, c.split, c.ops, pool), WithStrategy(StrategyAllReduce)), tree)
					checkSteps(c.name, 1+phases(StrategyAllReduce))
				}
				bitsEqual(t, "imm", run("imm", funcs(vecSeqOp, SplitSlice[float64], nil, pool), WithStrategy(StrategyIMM)), tree)
				// Per aggregation every partition's accumulator but the
				// adopted one, and every executor's aggregator, come back.
				if want := 9 * parts; pool.recycled != want {
					t.Fatalf("recycled %d aggregators over 9 aggregations, want %d", pool.recycled, want)
				}

				if cores != 1 {
					return
				}
				// Sequential specification of the IMM strategy: per
				// executor a left fold of its partitions' accumulators in
				// partition order, starting from the first; then the
				// driver's zero + e₀ + e₁ + ….
				want := make([]float64, dim)
				for e := 0; e < execs; e++ {
					var agg []float64
					for p := e; p < parts; p += execs {
						acc := make([]float64, dim)
						for i := p * samples / parts; i < (p+1)*samples/parts; i++ {
							acc = orderSensitiveSeqOp(acc, int64(i))
						}
						if agg == nil {
							agg = acc
						} else {
							agg = AddF64(agg, acc)
						}
					}
					want = AddF64(want, agg)
				}
				bitsEqual(t, "imm vs sequential fold",
					run("imm", funcs(orderSensitiveSeqOp, SplitSlice[float64], nil, pool), WithStrategy(StrategyIMM)), want)
				view := run("view", funcs(orderSensitiveSeqOp, SplitSlice[float64], &f64, pool))
				bitsEqual(t, "order-sensitive copy vs view",
					run("copy", funcs(orderSensitiveSeqOp, SplitSliceCopy[float64], &f64, nil)), view)
				bitsEqual(t, "order-sensitive serde vs f64 gather",
					run("serde", funcs(orderSensitiveSeqOp, SplitSlice[float64], nil, pool)), view)
				checkSteps("order-sensitive", 3)
			})
		}
	}
}

// TestChaosFallbackAfterPartialInPlaceReduce severs one PDR link after
// ring step 0 went through: with the split by view, every executor's
// resident aggregator is partly reduced by then, so a fallback that
// gathered what is resident would double-count. The fallback must
// recompute, return exactly the tree result — it is a StrategyIMM run,
// so bit for bit that one's, over task result frames with no block
// published — and be counted once.
func TestChaosFallbackAfterPartialInPlaceReduce(t *testing.T) {
	const samples, dim = 300, 97
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", par), func(t *testing.T) {
			name := fmt.Sprintf("chaos-inplace-%d", par)
			victim := transport.Addr(fmt.Sprintf("comm/%s/ring/%d", name, 1))
			ctx := chaosContext(t, name, 3, 2, par, &transport.FaultRule{
				Match: func(a transport.Addr) bool { return a == victim },
				Kind:  transport.FaultKill,
				// Per connection: the boot handshake and the step-0 frame
				// pass, the step-1 frame dies with the link.
				AfterMsgs: 2,
			})
			r := vectorRDD(ctx, samples, 6)
			pool := &poisonPool{}
			f := vecFuncs(dim)
			f.SplitOp = SplitSlice[float64]
			f.Zero, f.Recycle = pool.zero(dim), pool.recycle
			var reduces atomic.Int64
			f.ReduceOp = func(a, b []float64) []float64 {
				reduces.Add(1)
				return AddF64(a, b)
			}

			tree, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyTree))
			if err != nil {
				t.Fatal(err)
			}
			imm, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyIMM))
			if err != nil {
				t.Fatal(err)
			}
			blockPuts := func() int64 {
				return ctx.MergedMetrics().Histogram(metrics.HistBlockPutBytes).Count()
			}
			putsBefore := blockPuts()
			got, err := Aggregate(collective.WithChunkBytes(context.Background(), -1), r, f, WithDeadline(500*time.Millisecond))
			if err != nil {
				t.Fatalf("fallback should mask the kill: %v", err)
			}
			bitsEqual(t, "fallback vs tree", got, tree)
			bitsEqual(t, "fallback vs imm", got, imm)
			if n := blockPuts() - putsBefore; n != 0 {
				t.Fatalf("degraded run published %d blocks, want none", n)
			}
			// Step 0 completed on every rank and channel before the kill:
			// the aggregators the ring died on were already reduced into.
			if n := reduces.Load(); n < int64(3*par) {
				t.Fatalf("ring died after %d in-place reductions, want >= %d (the kill must land past step 0)", n, 3*par)
			}
			if n := ctx.Metrics().Count(metrics.CounterRingFallback); n != 1 {
				t.Fatalf("ring-fallback counter = %d, want 1", n)
			}
			// The failed attempt and the fallback both cleaned up.
			leftovers, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
				return []byte{byte(ec.MutObjs.Len())}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for e, p := range leftovers {
				if len(p) == 1 && p[0] != 0 {
					t.Fatalf("executor %d still holds %d mutable objects", e, p[0])
				}
			}
		})
	}
}

// TestHealthyAggregateSubmitsNoCleanupStage: a healthy split, allreduce
// or IMM aggregation is exactly two stages (IMM, then ring or gather)
// and leaves nothing in any executor's mutable object manager — the
// ring and gather tasks take and release their executor's state.
func TestHealthyAggregateSubmitsNoCleanupStage(t *testing.T) {
	const samples, dim = 120, 33
	exp := &trace.MemExporter{}
	ctx, err := rdd.NewContext(rdd.Config{
		Name: "core-no-cleanup", NumExecutors: 3, CoresPerExecutor: 1, Tracer: trace.New(exp),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	r := vectorRDD(ctx, samples, 3)
	for _, s := range []Strategy{StrategySplit, StrategyAllReduce, StrategyIMM} {
		before := len(exp.Named("stage"))
		if _, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(s)); err != nil {
			t.Fatal(err)
		}
		if n := len(exp.Named("stage")) - before; n != 2 {
			t.Fatalf("%v: %d stages submitted, want 2", s, n)
		}
		left, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			return []byte{byte(ec.MutObjs.Len())}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for e, p := range left {
			if p[0] != 0 {
				t.Fatalf("%v: executor %d still holds %d mutable objects", s, e, p[0])
			}
		}
	}
}

// TestFailedAggregateCleanupStages counts the cleanup jobs of the two
// ways an attempt fails. A failed IMM stage cleans up after each of its
// own attempts — jobs parented on that stage — and Aggregate adds no
// clear-by-prefix job of its own; a failed ring stage leaves
// aggregators with the tasks that never took them, so Aggregate submits
// exactly one. (The third way — the IMM stage's own cleanup job failing,
// which needs an executor lost under it — is marked rdd.ErrStageCleanup;
// rdd.TestStageCleanupFailureIsMarked pins the mark runAttempt reads.)
func TestFailedAggregateCleanupStages(t *testing.T) {
	const samples, dim = 120, 33
	const name = "core-failed-cleanup"
	exp := &trace.MemExporter{}
	victim := transport.Addr("comm/" + name + "/ring/1")
	ctx, err := rdd.NewContext(rdd.Config{
		Name: name, NumExecutors: 3, CoresPerExecutor: 1, RingParallelism: 1, Tracer: trace.New(exp),
		Network: transport.NewFaulty(transport.NewMem(), 7, &transport.FaultRule{
			Match:     func(a transport.Addr) bool { return a == victim },
			Kind:      transport.FaultKill,
			AfterMsgs: 1, // ring handshakes pass at boot; first step dies
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	r := vectorRDD(ctx, samples, 3)
	// stagesSince counts the stages submitted since before, by parent
	// span.
	stagesSince := func(before int) map[uint64]int {
		byParent := map[uint64]int{}
		for _, s := range exp.Named("stage")[before:] {
			byParent[s.ParentID]++
		}
		return byParent
	}

	// The fold fails on every whole-stage attempt: the IMM stage hangs
	// under the aggregate, its three cleanup jobs under it — so the only
	// other parent seen is that stage.
	f := vecFuncs(dim)
	f.SeqOp = func([]float64, int64) []float64 { panic("injected") }
	before := len(exp.Named("stage"))
	if _, err := Aggregate(context.Background(), r, f, WithStrategy(StrategyIMM)); err == nil {
		t.Fatal("an IMM stage that always fails must surface")
	}
	agg := exp.Named("aggregate")[0]
	byParent := stagesSince(before)
	imm := exp.Named("stage")[len(exp.Named("stage"))-1] // a stage span ends after its cleanup jobs
	if len(byParent) != 2 || byParent[agg.SpanID] != 1 || imm.ParentID != agg.SpanID || byParent[imm.SpanID] != 3 {
		t.Fatalf("failed IMM stage: stages by parent = %v, want the IMM stage %x under aggregate %x and its 3 cleanup jobs under it",
			byParent, imm.SpanID, agg.SpanID)
	}

	// The ring dies on its first step: IMM stage, ring stage, one
	// cleanupIMM, then the degraded re-run's IMM stage and gather.
	before = len(exp.Named("stage"))
	got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithDeadline(500*time.Millisecond))
	if err != nil {
		t.Fatalf("fallback should mask the kill: %v", err)
	}
	requireExact(t, got, expectedVector(samples, dim))
	agg = exp.Named("aggregate")[1]
	if byParent := stagesSince(before); len(byParent) != 1 || byParent[agg.SpanID] != 5 {
		t.Fatalf("failed ring stage: stages by parent = %v, want 5 under aggregate %x", byParent, agg.SpanID)
	}
}

// ownedFrame builds an owned-segments frame from (index, body) pairs,
// declaring count entries.
func ownedFrame(count uint32, entries ...any) []byte {
	b := binary.LittleEndian.AppendUint32(nil, count)
	for i := 0; i < len(entries); i += 2 {
		body := entries[i+1].([]byte)
		b = binary.LittleEndian.AppendUint32(b, uint32(entries[i].(int)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
		b = append(b, body...)
	}
	return b
}

func f64Body(vals ...float64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// packedSeg builds a packed segment's bytes — elems | bitmap | non-zero
// words — from its dense values, independently of the encoder under
// test.
func packedSeg(vals ...float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(vals)))
	bitmap := make([]uint64, serde.PackedWords(len(vals)))
	var nz []float64
	for i, v := range vals {
		if math.Float64bits(v) != 0 {
			bitmap[i/64] |= 1 << uint(i%64)
			nz = append(nz, v)
		}
	}
	for _, w := range bitmap {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return append(b, f64Body(nz...)...)
}

// unpackSeg is the reference expansion of a parsed packed segment.
func unpackSeg(s ownedSeg) []float64 {
	out := make([]float64, s.elems)
	vals := s.body[8*serde.PackedWords(s.elems):]
	for i := range out {
		if binary.LittleEndian.Uint64(s.body[8*(i/64):])>>uint(i%64)&1 != 0 {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals))
			vals = vals[8:]
		}
	}
	return out
}

func TestDecodeOwnedRejectsMalformedFrames(t *testing.T) {
	ops := collective.F64Ops()
	good := [][]byte{
		ownedFrame(2, 0, f64Body(1, 2), 2, f64Body(5)),
		ownedFrame(2, 1, f64Body(3, 4), 3, f64Body()),
	}
	got, err := decodeOwned(good, ops, ConcatSlices[float64], nil)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, got, []float64{1, 2, 3, 4, 5})

	// Raw and packed segments mix freely, frame by frame and within one.
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	got, err = decodeOwned([][]byte{
		ownedFrame(2, 0|ownedPacked, packedSeg(0, 0, negZero, 0, 7), 2, f64Body(5)),
		ownedFrame(2, 1, f64Body(3, 4), 3|ownedPacked, packedSeg(0, tiny, 0, math.Inf(-1))),
	}, ops, ConcatSlices[float64], nil)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "mixed raw and packed", got, []float64{0, 0, negZero, 0, 7, 3, 4, 5, 0, tiny, 0, math.Inf(-1)})

	short := ownedFrame(1, 0, f64Body(1, 2))
	// Packed-segment corruptions of packedSeg(0, 9, 0): elems 3, bitmap
	// 0b010, one value.
	pk := packedSeg(0, 9, 0)
	corrupt := func(mut func(b []byte) []byte) [][]byte {
		b := mut(append([]byte(nil), pk...))
		return [][]byte{ownedFrame(4, 0|ownedPacked, b, 1, f64Body(), 2, f64Body(), 3, f64Body())}
	}
	for _, c := range []struct {
		name      string
		payloads  [][]byte
		malformed bool
	}{
		{"empty frame", [][]byte{{}}, true},
		{"truncated count", [][]byte{{1, 0}}, true},
		{"truncated entry header", [][]byte{short[:9]}, true},
		{"truncated segment body", [][]byte{short[:len(short)-1]}, true},
		{"count beyond entries", [][]byte{ownedFrame(3, 0, f64Body(1))}, true},
		{"index out of range", [][]byte{ownedFrame(1, 4, f64Body(1))}, true},
		{"index wraps negative", [][]byte{ownedFrame(1, -1, f64Body(1))}, true},
		{"duplicate within a frame", [][]byte{ownedFrame(2, 0, f64Body(1), 0, f64Body(2))}, true},
		{"duplicate across frames", [][]byte{ownedFrame(1, 0, f64Body(1)), ownedFrame(1, 0, f64Body(2))}, true},
		{"body not a multiple of the stride", [][]byte{ownedFrame(4, 0, []byte{1, 2, 3}, 1, f64Body(), 2, f64Body(), 3, f64Body())}, true},
		{"ranks disagree on the count", [][]byte{ownedFrame(2, 0, f64Body(1), 2, f64Body(2)), ownedFrame(1, 1, f64Body(3))}, true},
		{"a rank owns no segment", [][]byte{ownedFrame(1, 0, f64Body(1)), ownedFrame(0)}, true},
		{"every rank owns no segment", [][]byte{ownedFrame(0), ownedFrame(0)}, true},
		{"index past the implied total", [][]byte{ownedFrame(1, 0, f64Body(1)), ownedFrame(1, 2, f64Body(2))}, true},
		{"segment missing: a gap and a duplicate", [][]byte{ownedFrame(2, 0, f64Body(1), 2, f64Body(2)), ownedFrame(2, 1, f64Body(3), 2, f64Body(4))}, true},
		{"packed: shorter than its element count", corrupt(func(b []byte) []byte { return b[:3] }), true},
		{"packed: bitmap shorter than ceil(elems/64) words", corrupt(func(b []byte) []byte { b[0] = 65; return b }), true},
		{"packed: bitmap longer than ceil(elems/64) words", corrupt(func(b []byte) []byte { b[0] = 0; return b }), true},
		{"packed: popcount above the value count", corrupt(func(b []byte) []byte { b[4] = 0b011; return b }), true},
		{"packed: popcount below the value count", corrupt(func(b []byte) []byte { b[4] = 0; return b }), true},
		{"packed: bit set past elems", corrupt(func(b []byte) []byte { b[4] = 0b1000; return b }), true},
		{"packed: truncated value", corrupt(func(b []byte) []byte { return b[:len(b)-1] }), true},
	} {
		_, err := decodeOwned(c.payloads, ops, ConcatSlices[float64], nil)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if errors.Is(err, ErrMalformedFrame) != c.malformed {
			t.Errorf("%s: ErrMalformedFrame classification = %v, want %v (%v)", c.name, !c.malformed, c.malformed, err)
		}
	}

	// The generic (serde-framed) path shares the parser.
	generic := serdeOps[[]float64](AddF64)
	seg := func(vals ...float64) []byte { return generic.Encode(nil, vals) }
	got, err = decodeOwned([][]byte{ownedFrame(2, 1, seg(3), 0, seg(1, 2))}, generic, ConcatSlices[float64], nil)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, got, []float64{1, 2, 3})
	if _, err := decodeOwned([][]byte{ownedFrame(2, 1, seg(3), 1, seg(1))}, generic, ConcatSlices[float64], nil); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("generic path accepted a duplicate: %v", err)
	}
	// Ops that cannot pack refuse a packed segment instead of misreading it.
	if _, err := decodeOwned([][]byte{ownedFrame(2, 1, seg(3), 0|ownedPacked, packedSeg(1, 2))}, generic, ConcatSlices[float64], nil); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("generic path accepted a packed segment: %v", err)
	}
}

// sparseSeqOp touches three coordinates per sample with integer values,
// so a partition's accumulator is a few per cent non-zero — the shape of
// a wide sparse gradient — and every association order sums to the same
// float64s.
func sparseSeqOp(acc []float64, v int64) []float64 {
	for k := int64(0); k < 3; k++ {
		acc[int((v*31+k*977)%int64(len(acc)))] += float64(v%5 + 1)
	}
	return acc
}

// TestSplitPackedEquivalence: on a sparse aggregator the split and
// allreduce strategies return, bit for bit, the same vector whether the
// ring and the gather may pack (F64Ops), may not (F64Ops without the
// hook) or cannot (the serde ops, which never see a packed frame) — and
// that vector is the tree's. The counter proves the packed encoder ran.
func TestSplitPackedEquivalence(t *testing.T) {
	const execs, samples, dim = 3, 240, 6007
	ctx := testContext(t, execs, 2)
	r := vectorRDD(ctx, samples, execs*2)
	var packedEncodes atomic.Int64
	packing := collective.F64Ops()
	hook := *packing.Packed
	hook.EncodeChunkTo = func(dst []byte, v []float64, off, n int, cand []uint64, bit int) []byte {
		packedEncodes.Add(1)
		return packing.Packed.EncodeChunkTo(dst, v, off, n, cand, bit)
	}
	counted := packing
	counted.Packed = &hook
	plain := collective.F64Ops()
	plain.Packed = nil

	run := func(name string, ops *collective.Ops[[]float64], par int, opts ...AggOption) []float64 {
		t.Helper()
		got, err := Aggregate(fillChannels(context.Background(), dim, par), r, AggFuncs[int64, []float64, []float64]{
			Zero: vecZero(dim), SeqOp: sparseSeqOp, MergeOp: AddF64,
			SplitOp: SplitSlice[float64], ReduceOp: AddF64, ConcatOp: ConcatSlices[float64], Ops: ops,
		}, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return got
	}
	tree := run("tree", nil, 1, WithStrategy(StrategyTree))
	want := make([]float64, dim)
	for i := int64(0); i < samples; i++ {
		want = sparseSeqOp(want, i)
	}
	requireExact(t, tree, want)
	for _, strategy := range []Strategy{StrategySplit, StrategyAllReduce} {
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("%v/par=%d", strategy, par)
			opts := []AggOption{WithStrategy(strategy), WithParallelism(par)}
			before, steps := packedEncodes.Load(), ringSteps(ctx)
			bitsEqual(t, name+"/packing", run(name, &counted, par, opts...), tree)
			if packedEncodes.Load() == before {
				t.Errorf("%s: nothing travelled packed on a %d-of-%d non-zero aggregator", name, 3*samples, dim)
			}
			bitsEqual(t, name+"/hook removed", run(name, &plain, par, opts...), tree)
			bitsEqual(t, name+"/serde ops", run(name, nil, par, opts...), tree)
			if n, want := ringSteps(ctx)-steps, int64(3*execs*par*(execs-1)*phases(strategy)); n != want {
				t.Errorf("%s: %d ring steps over three runs, want %d (%d channels)", name, n, want, par)
			}
		}
	}
}

// TestOwnedFramePacksPerSegment: encodeOwned chooses the form segment
// by segment from the data, draws the frame at its exact size, leaves a
// segment that does not pack byte-identical to the raw form, and
// decodeOwned gives back every word — −0.0, NaN and subnormals included.
func TestOwnedFramePacksPerSegment(t *testing.T) {
	ops := collective.F64Ops()
	sparse := make([]float64, 200)
	sparse[3], sparse[64], sparse[199] = math.Copysign(0, -1), math.NaN(), math.SmallestNonzeroFloat64
	dense := make([]float64, 200)
	for i := range dense {
		dense[i] = float64(i) + 0.25
	}
	owned := map[int][]float64{0: sparse, 1: dense, 2: make([]float64, 130), 3: {}}
	drawn := 0
	frame := encodeOwned(owned, ops, nil, nil, func(n int) []byte { drawn = n; return make([]byte, 0, n) })
	// count | packed(4 words bitmap + 3 values) | raw | packed(3 words, no values) | raw, empty
	if want := 4 + (8 + 4 + 8*(4+3)) + (8 + 8*200) + (8 + 4 + 8*3) + 8; len(frame) != want || drawn != want {
		t.Fatalf("frame is %d bytes, drew %d, want %d", len(frame), drawn, want)
	}
	rawOnly := collective.F64Ops()
	rawOnly.Packed = nil
	rawFrame := encodeOwned(map[int][]float64{1: dense}, rawOnly, nil, nil, func(n int) []byte { return make([]byte, 0, n) })
	if at := 4 + 8 + 4 + 8*(4+3); !bytes.Equal(frame[at:at+8+8*200], rawFrame[4:]) {
		t.Error("a segment that does not pack is not byte-identical to the raw form")
	}
	got, err := decodeOwned([][]byte{frame}, ops, ConcatSlices[float64], nil)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "round trip", got, append(append(append([]float64(nil), sparse...), dense...), make([]float64, 130)...))
}

// TestOwnedFrameOverhead is the owned-segments row of `make overhead`:
// framing a rank's segments allocates nothing beyond the frame the task
// draws, packed or not, and decoding packed frames allocates what
// decoding raw ones does — the result vector and the parse table.
func TestOwnedFrameOverhead(t *testing.T) {
	ops := collective.F64Ops()
	const segLen = 1 << 12
	owned := func(stride int) map[int][]float64 {
		m := map[int][]float64{}
		for i := 0; i < 4; i++ {
			m[i] = make([]float64, segLen)
			for j := 0; j < segLen; j += stride {
				m[i][j] = float64(j + 1)
			}
		}
		return m
	}
	buf := make([]byte, 0, 4+4*(8+8*segLen))
	draw := func(int) []byte { return buf }
	for _, c := range []struct {
		name    string
		stride  int
		support bool
	}{{"raw", 1, false}, {"packed", 20, false}, {"packed from a support", 20, true}} {
		segs := owned(c.stride)
		var sup []uint64
		var first func(int) int
		if c.support {
			list := [][]float64{segs[0], segs[1], segs[2], segs[3]}
			sup, first = supportOver(ConcatSlices(list)), firstOf(list)
		}
		if a := testing.AllocsPerRun(50, func() { encodeOwned(segs, ops, sup, first, draw) }); a != 0 {
			t.Errorf("%s: encodeOwned allocates %v times per frame, want 0", c.name, a)
		}
	}
	decodeAllocs := func(stride int) float64 {
		frame := encodeOwned(owned(stride), ops, nil, nil, draw)
		return testing.AllocsPerRun(50, func() {
			// decodeOwned releases accepted frames to the wire pool.
			if _, err := decodeOwned([][]byte{append([]byte(nil), frame...)}, ops, ConcatSlices[float64], nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if raw, packed := decodeAllocs(1), decodeAllocs(20); packed > raw {
		t.Errorf("decoding packed frames allocates %v times, raw frames %v", packed, raw)
	}
}

// TestAllReduceFrameOverhead is the allreduce row of `make overhead`:
// ring rank 0 frames the reduced vector in serde's bytes, packed or not,
// straight into the frame the task draws, allocating nothing. Then
// allreduce steps over F64Ops, whose rank-0 frames go from the task's
// draw through the transport to the driver's reader and back to the
// pool, must come out exact; `make race` runs this under -race, where
// the wire pool's double-park guard is armed.
func TestAllReduceFrameOverhead(t *testing.T) {
	const dim = 1 << 12
	fns := vecFuncs(dim)
	ops := collective.F64Ops()
	fns.Ops = &ops
	buf := make([]byte, 0, 8+8*dim)
	draw := func(int) []byte { return buf }
	for _, stride := range []int{1, 20} { // dense, then packed
		v := make([]float64, dim)
		for j := 0; j < dim; j += stride {
			v[j] = float64(j + 1)
		}
		got, err := fns.encodeResult(v, draw)
		if err != nil || !bytes.Equal(got, serde.MustEncode(nil, v)) {
			t.Fatalf("stride %d: rank 0's frame is not serde's bytes (%v)", stride, err)
		}
		if a := testing.AllocsPerRun(50, func() { fns.encodeResult(v, draw) }); a != 0 {
			t.Errorf("stride %d: encodeResult allocates %v times per frame, want 0", stride, a)
		}
	}
	const samples = 300
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6).Cache()
	want := expectedVector(samples, dim)
	for step := 0; step < 5; step++ {
		got, err := Aggregate(context.Background(), r, fns, WithStrategy(StrategyAllReduce))
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, got, want)
	}
	if n := ctx.Metrics().Count(metrics.CounterRingFallback); n != 0 {
		t.Fatalf("%d ring fallbacks: no step reached rank 0's frame", n)
	}
}

// FuzzDecodeOwned: the owned-segments decoder takes bytes off a socket.
// Whatever arrives, it returns a vector or an error — no panic, no
// out-of-range write. What it accepts, the reader hands Finish whole:
// its dense result equals the old per-segment decode of every segment.
// A refused set writes nothing: Finish never sees it, and its frames
// are left as they came.
func FuzzDecodeOwned(f *testing.F) {
	ops := collective.F64Ops()
	// Both frames list the same count, so each seed gets past the
	// width check to the entry it exercises: a good pair, an index out
	// of range, a duplicate, and a count beyond the bytes.
	f.Add(ownedFrame(2, 0, f64Body(1, 2), 1, f64Body(3)), ownedFrame(2, 2, f64Body(4), 3, f64Body()))
	f.Add(ownedFrame(1, 7, f64Body(1)), ownedFrame(1, 1, f64Body()))
	f.Add(ownedFrame(2, 0, f64Body(1), 0, f64Body(1)), ownedFrame(2, 1, f64Body(), 2, f64Body()))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, []byte{1})
	// Packed segments: a good frame, then bitmap length ≠ ceil(elems/64),
	// popcount ≠ value count, a bit past elems, and a truncated value.
	pk := packedSeg(0, 9, 0, math.Copysign(0, -1))
	mut := func(at int, v byte) []byte { b := append([]byte(nil), pk...); b[at] = v; return b }
	f.Add(ownedFrame(2, 0|ownedPacked, pk, 1, f64Body(3)), ownedFrame(2, 2|ownedPacked, packedSeg(0, 0), 3, f64Body()))
	f.Add(ownedFrame(2, 0|ownedPacked, mut(0, 65), 1, f64Body(3)), ownedFrame(2, 2, f64Body(), 3, f64Body()))
	f.Add(ownedFrame(2, 0|ownedPacked, mut(4, 0b0010), 1, f64Body(3)), ownedFrame(2, 2, f64Body(), 3, f64Body()))
	f.Add(ownedFrame(2, 0|ownedPacked, mut(4, 0b11010), 1, f64Body(3)), ownedFrame(2, 2, f64Body(), 3, f64Body()))
	f.Add(ownedFrame(2, 0|ownedPacked, pk[:len(pk)-3], 1, f64Body(3)), ownedFrame(2, 2, f64Body(), 3, f64Body()))
	// The ring's width comes from the frames: every rank lists the same
	// count k ≥ 1 and together they name 0 … 2k−1 once. A good pair, then
	// ranks that disagree on k, a gap in the indices, an index at the
	// implied total, and ranks with no segment.
	f.Add(ownedFrame(2, 0, f64Body(1, 2), 3|ownedPacked, packedSeg(0, 4)), ownedFrame(2, 1, f64Body(3), 2, f64Body()))
	f.Add(ownedFrame(2, 0, f64Body(1), 3, f64Body(4)), ownedFrame(1, 1, f64Body(3)))
	f.Add(ownedFrame(2, 0, f64Body(1), 2, f64Body(2)), ownedFrame(2, 1, f64Body(3), 2, f64Body(4)))
	f.Add(ownedFrame(1, 0, f64Body(1)), ownedFrame(1, 2, f64Body(2)))
	f.Add(ownedFrame(1, 0, f64Body(1)), ownedFrame(0))
	f.Add(ownedFrame(0), ownedFrame(0))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// Private copies: an accepted frame is released to the wire pool.
		payloads := [][]byte{append([]byte(nil), a...), append([]byte(nil), b...)}
		finished := false
		got, err := decodeOwned(payloads, ops, ConcatSlices[float64], func(agg *serde.F64Frames) ([]float64, error) {
			finished = true
			return agg.Dense(), nil
		})
		if err != nil {
			if finished || !bytes.Equal(payloads[0], a) || !bytes.Equal(payloads[1], b) {
				t.Fatalf("a refused set reached Finish (%v) or had its frames written: %v", finished, err)
			}
			return
		}
		if !finished {
			t.Fatal("an accepted set never reached Finish")
		}
		k, _ := ownedCount(a)
		segs := make([]ownedSeg, 2*k)
		if parseOwned(a, segs) != nil || parseOwned(b, segs) != nil {
			t.Fatal("decodeOwned accepted frames parseOwned rejects")
		}
		var want []float64
		for _, s := range segs {
			if s.packed {
				want = append(want, unpackSeg(s)...)
				continue
			}
			for off := 0; off < len(s.body); off += 8 {
				want = append(want, math.Float64frombits(binary.LittleEndian.Uint64(s.body[off:])))
			}
		}
		bitsEqual(t, "decoded", got, want)
	})
}
