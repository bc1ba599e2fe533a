package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sparker/internal/collective"
	"sparker/internal/comm"
	"sparker/internal/rdd"
	"sparker/internal/sched"
	"sparker/internal/serde"
	"sparker/internal/trace"
)

func vecFuncs(dim int) AggFuncs[int64, []float64, []float64] {
	return AggFuncs[int64, []float64, []float64]{
		Zero:     vecZero(dim),
		SeqOp:    vecSeqOp,
		MergeOp:  AddF64,
		SplitOp:  SplitSliceCopy[float64],
		ReduceOp: AddF64,
		ConcatOp: ConcatSlices[float64],
	}
}

// TestAggregateStrategiesAgree runs every strategy through the unified
// entry point and checks they all produce the same vector sum.
func TestAggregateStrategiesAgree(t *testing.T) {
	const samples, dim = 300, 97
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6)
	want := expectedVector(samples, dim)

	for _, s := range []Strategy{StrategySplit, StrategyTree, StrategyIMM, StrategyAllReduce, StrategyAuto} {
		got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(s))
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if !vecsClose(got, want, 1e-9) {
			t.Fatalf("strategy %v: wrong vector sum", s)
		}
	}
}

// TestAggregateDefaultIsSplit checks the zero-option call is split
// aggregation at the context's ring parallelism, bit for bit.
func TestAggregateDefaultIsSplit(t *testing.T) {
	const samples, dim = 200, 64
	ctx := testContext(t, 2, 2)
	r := vectorRDD(ctx, samples, 4)

	def, err := Aggregate(context.Background(), r, vecFuncs(dim))
	if err != nil {
		t.Fatal(err)
	}
	split, err := Aggregate(context.Background(), r, vecFuncs(dim),
		WithStrategy(StrategySplit), WithParallelism(ctx.RingParallelism()))
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, def, split)
}

// TestAggregateAutoSingleExecutor: a ring of one reduces nothing, so
// Auto must pick IMM and still produce the right answer.
func TestAggregateAutoSingleExecutor(t *testing.T) {
	const samples, dim = 100, 16
	ctx := testContext(t, 1, 2)
	r := vectorRDD(ctx, samples, 3)
	got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
		t.Fatal("wrong vector sum")
	}
}

// TestRingChannelsFromBytes pins the ring's width rule. P, from
// WithParallelism or else the context's RingParallelism, is a cap: a
// fixed-stride aggregator rides min(P, ⌈bytes ÷ B⌉) channels, B the chunk
// size in force, and stride-less ops, whose bytes are unknown before
// encoding, keep P.
func TestRingChannelsFromBytes(t *testing.T) {
	const b = 512 << 10 // the default chunk size
	f64, generic := collective.F64Ops(), serdeOps[[]float64](AddF64)
	bg := context.Background()
	for _, c := range []struct {
		name  string
		bytes int
		want  [3]int // at P = 1, 2, 4
	}{
		{"1 element", 8, [3]int{1, 1, 1}},
		{"4 KB", 4 << 10, [3]int{1, 1, 1}},
		{"16 KB", 16 << 10, [3]int{1, 1, 1}},
		{"B-8", b - 8, [3]int{1, 1, 1}},
		{"B", b, [3]int{1, 1, 1}},
		{"B+8", b + 8, [3]int{1, 2, 2}},
		{"2 MB", 2 << 20, [3]int{1, 2, 4}},
		{"8 MB", 8 << 20, [3]int{1, 2, 4}},
	} {
		agg := [][]float64{make([]float64, c.bytes/8)}
		for k, p := range []int{1, 2, 4} {
			if got := collective.RingChannels(bg, p, len(agg[0]), f64); got != c.want[k] {
				t.Errorf("%s, P=%d: %d channels, want %d", c.name, p, got, c.want[k])
			}
			if got := collective.RingChannels(bg, p, len(agg[0]), generic); got != p {
				t.Errorf("%s, P=%d, stride-less: %d channels, want P", c.name, p, got)
			}
			// With chunking off there is no chunk to fill.
			if got := collective.RingChannels(collective.WithChunkBytes(bg, -1), p, len(agg[0]), f64); got != p {
				t.Errorf("%s, P=%d, chunking off: %d channels, want P", c.name, p, got)
			}
		}
	}

	// Through Aggregate, on 800-byte chunks: an explicit WithParallelism
	// caps the width the bytes give and never raises it, and without one
	// the context's RingParallelism (4) is the cap.
	const execs = 3
	ctx := testContext(t, execs, 1)
	r := vectorRDD(ctx, 60, execs)
	chunked := collective.WithChunkBytes(bg, 800)
	for _, dim := range []int{100, 200, 400, 1000} { // 1, 2, 4 and 10 chunks
		fromBytes := (8*dim + 799) / 800
		for _, p := range []int{0, 1, 2, 4} {
			f := vecFuncs(dim)
			f.SplitOp, f.Ops = SplitSlice[float64], &f64
			steps := ringSteps(ctx)
			got, err := Aggregate(chunked, r, f, WithParallelism(p))
			if err != nil {
				t.Fatal(err)
			}
			requireExact(t, got, expectedVector(60, dim))
			want := min(fromBytes, 4)
			if p > 0 {
				want = min(fromBytes, p)
			}
			if n := ringSteps(ctx) - steps; n != int64(execs*want*(execs-1)) {
				t.Errorf("dim %d, WithParallelism(%d): %d ring steps, want %d channels' %d", dim, p, n, want, execs*want*(execs-1))
			}
		}
	}
}

// TestAggregateValidation covers option and callback validation.
func TestAggregateValidation(t *testing.T) {
	ctx := testContext(t, 2, 1)
	r := vectorRDD(ctx, 10, 2)

	if _, err := Aggregate(context.Background(), r, vecFuncs(8), WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism should fail")
	}
	fns := vecFuncs(8)
	fns.ReduceOp = nil
	if _, err := Aggregate(context.Background(), r, fns); err == nil {
		t.Fatal("missing ReduceOp should fail for split")
	}
	if _, err := Aggregate(context.Background(), r, AggFuncs[int64, []float64, []float64]{}); err == nil {
		t.Fatal("empty AggFuncs should fail")
	}
	// Finish reads []float64 frames: ops that cannot pack have none.
	fns = vecFuncs(8)
	fns.Finish = func(agg *serde.F64Frames) ([]float64, error) { return agg.Dense(), nil }
	if _, err := Aggregate(context.Background(), r, fns, WithStrategy(StrategyTree)); err == nil {
		t.Fatal("Finish without Ops that pack should fail")
	}
}

// TestAggregateKeepKey checks the allreduce result stays resident on
// every executor under the chosen key.
func TestAggregateKeepKey(t *testing.T) {
	const samples, dim = 120, 24
	ctx := testContext(t, 2, 2)
	r := vectorRDD(ctx, samples, 4)
	want := expectedVector(samples, dim)

	got, err := Aggregate(context.Background(), r, vecFuncs(dim),
		WithStrategy(StrategyAllReduce), WithKeepKey("model/latest"))
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(got, want, 1e-9) {
		t.Fatal("wrong driver copy")
	}
	payloads, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		obj := ec.MutObjs.Get("model/latest")
		if obj == nil {
			return []byte{0}, nil
		}
		var resident []float64
		obj.Read(func(v any) { resident, _ = v.([]float64) })
		if vecsClose(resident, want, 1e-9) {
			return []byte{1}, nil
		}
		return []byte{0}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if len(p) != 1 || p[0] != 1 {
			t.Fatalf("executor %d: resident result missing or wrong", i)
		}
	}
}

// TestAggregateDeadlineOptionHarmless: an explicit short deadline on a
// healthy ring must not break anything.
func TestAggregateDeadlineOptionHarmless(t *testing.T) {
	const samples, dim = 200, 48
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6)
	got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithDeadline(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
		t.Fatal("wrong vector sum")
	}
}

// TestDecideTable is the failure-handling table, exhaustively: every
// error class the task wire can carry × whether the membership epoch
// moved × whether the re-run budget is spent.
func TestDecideTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("rdd: job failed: task 1: %w", err) }
	classes := []struct {
		name string
		err  error
		// want[epochMoved] with attempts left; exhausted always surfaces.
		stable, moved recovery
	}{
		{"peer timeout", wrap(comm.ErrPeerTimeout), degradeToIMM, retrySame},
		{"peer down", wrap(comm.ErrPeerDown), degradeToIMM, retrySame},
		{"executor lost", wrap(sched.ErrExecutorLost), degradeToIMM, retrySame},
		{"endpoint closed", wrap(comm.ErrClosed), surface, retrySame},
		{"membership changed", wrap(ErrMembershipChanged), retrySame, retrySame},
		{"unclassified", errors.New("seqOp panicked"), surface, surface},
		{"cancelled", wrap(context.Canceled), surface, surface},
	}
	for _, c := range classes {
		class := classify(c.err)
		for _, moved := range []bool{false, true} {
			want := c.stable
			if moved {
				want = c.moved
			}
			if got := decide(class, moved, true); got != want {
				t.Errorf("%s, epoch moved=%v, attempts left: got %v, want %v", c.name, moved, got, want)
			}
			if got := decide(class, moved, false); got != surface {
				t.Errorf("%s, epoch moved=%v, attempts exhausted: got %v, want surface", c.name, moved, got)
			}
		}
	}
}

// TestTreeStrategyCarriesTraceParent: every stage of a StrategyTree
// aggregation — fold, combine round, block cleanup — is parented on the
// aggregation's span.
func TestTreeStrategyCarriesTraceParent(t *testing.T) {
	const samples, dim = 200, 16
	exp := &trace.MemExporter{}
	ctx, err := rdd.NewContext(rdd.Config{
		Name: "core-tree-parent", NumExecutors: 2, CoresPerExecutor: 2, Tracer: trace.New(exp),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	r := vectorRDD(ctx, samples, 16) // 16 partitions at depth 2: one combine round

	got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyTree))
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, got, expectedVector(samples, dim))

	aggs := exp.Named("aggregate")
	if len(aggs) != 1 {
		t.Fatalf("%d aggregate spans, want 1", len(aggs))
	}
	stages := 0
	for _, s := range exp.Named("stage") {
		if s.TraceID != aggs[0].TraceID {
			continue // boot-time stages
		}
		stages++
		if s.ParentID != aggs[0].SpanID {
			t.Errorf("stage span %x parented on %x, want the aggregate span %x", s.SpanID, s.ParentID, aggs[0].SpanID)
		}
	}
	if stages != 3 {
		t.Fatalf("%d stages under the aggregate span, want 3: the fold, the combine round and the block-cleanup job", stages)
	}
}
