package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sparker/internal/comm"
	"sparker/internal/rdd"
	"sparker/internal/sched"
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

// TestTreeStrategyCarriesTenantAndTraceParent: every stage of a
// StrategyTree aggregation — fold, combine round, block cleanup — is
// charged to the aggregation's tenant and parented on its span.
func TestTreeStrategyCarriesTenantAndTraceParent(t *testing.T) {
	const samples, dim = 200, 16
	exp := &trace.MemExporter{}
	ctx, err := rdd.NewContext(rdd.Config{
		Name: "core-tree-tenant", NumExecutors: 2, CoresPerExecutor: 2, Tracer: trace.New(exp),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	r := vectorRDD(ctx, samples, 16) // 16 partitions at depth 2: one combine round

	before := ctx.TenantStats()
	got, err := Aggregate(context.Background(), r, vecFuncs(dim),
		WithStrategy(StrategyTree), WithTenant("t"))
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, got, expectedVector(samples, dim))
	if err := ctx.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	after := ctx.TenantStats()
	// 16 folds + 4 combiners + 2 cleanup tasks.
	if n := after["t"].Completed; n < 22 {
		t.Fatalf("tenant t was charged %d attempts, want >= 22", n)
	}
	if n := after[""].Completed - before[""].Completed; n != 0 {
		t.Fatalf("default tenant was charged %d attempts of tenant t's aggregation", n)
	}
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
