package core

// Tests for the in-place split-aggregation path: the ring reducing in
// the resident aggregator (view split), adoption of the first
// accumulator, aggregator recycling, the owned-segments frame codec,
// and the fallback that recomputes after a ring that died half-reduced.

import (
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
	const execs, samples, dim = 3, 240, 101
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
					got, err := Aggregate(context.Background(), r, f, opts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return got
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

func TestDecodeOwnedRejectsMalformedFrames(t *testing.T) {
	ops := collective.F64Ops()
	good := [][]byte{
		ownedFrame(2, 0, f64Body(1, 2), 2, f64Body(5)),
		ownedFrame(2, 1, f64Body(3, 4), 3, f64Body()),
	}
	got, err := decodeOwned(good, 4, ops, ConcatSlices[float64])
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, got, []float64{1, 2, 3, 4, 5})

	short := ownedFrame(1, 0, f64Body(1, 2))
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
		{"segment missing", [][]byte{ownedFrame(1, 0, f64Body(1))}, false},
	} {
		_, err := decodeOwned(c.payloads, 4, ops, ConcatSlices[float64])
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if errors.Is(err, ErrMalformedFrame) != c.malformed {
			t.Errorf("%s: ErrMalformedFrame classification = %v, want %v (%v)", c.name, !c.malformed, c.malformed, err)
		}
	}

	// The generic (serde-framed) path shares the parser.
	generic := serdeOps[[]float64](AddF64)
	seg := func(vals ...float64) []byte { return generic.Encode(nil, vals) }
	got, err = decodeOwned([][]byte{ownedFrame(2, 1, seg(3), 0, seg(1, 2))}, 2, generic, ConcatSlices[float64])
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, got, []float64{1, 2, 3})
	if _, err := decodeOwned([][]byte{ownedFrame(2, 1, seg(3), 1, seg(1))}, 2, generic, ConcatSlices[float64]); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("generic path accepted a duplicate: %v", err)
	}
}

// FuzzDecodeOwned: the owned-segments decoder takes bytes off a socket.
// Whatever arrives, it returns a vector or an error — no panic, no
// out-of-range write — and what it accepts re-encodes to the same
// segments.
func FuzzDecodeOwned(f *testing.F) {
	ops := collective.F64Ops()
	f.Add(ownedFrame(2, 0, f64Body(1, 2), 1, f64Body(3)), ownedFrame(1, 2, f64Body(4)))
	f.Add(ownedFrame(1, 7, f64Body(1)), []byte{})
	f.Add(ownedFrame(2, 0, f64Body(1), 0, f64Body(1)), ownedFrame(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, []byte{1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// Private copies: an accepted frame is released to the wire pool.
		payloads := [][]byte{append([]byte(nil), a...), append([]byte(nil), b...)}
		got, err := decodeOwned(payloads, 3, ops, ConcatSlices[float64])
		if err != nil {
			return
		}
		bodies := make([][]byte, 3)
		if parseOwned(a, bodies) != nil || parseOwned(b, bodies) != nil {
			t.Fatal("decodeOwned accepted frames parseOwned rejects")
		}
		var want []float64
		for _, body := range bodies {
			for off := 0; off < len(body); off += 8 {
				want = append(want, math.Float64frombits(binary.LittleEndian.Uint64(body[off:])))
			}
		}
		bitsEqual(t, "decoded", got, want)
	})
}
