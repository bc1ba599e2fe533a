package rdd_test

import (
	"context"
	"fmt"
	"testing"

	"sparker/internal/core"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
)

// Spark's treeAggregate over an RDD, run through core.Aggregate with
// StrategyTree: the sum comes back whole at every depth and partition
// count, and the tree leaves no round block behind.

func newContext(t *testing.T, execs, cores int) *rdd.Context {
	t.Helper()
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             fmt.Sprintf("t-%s", t.Name()),
		NumExecutors:     execs,
		CoresPerExecutor: cores,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

func treeSum(r *rdd.RDD[int64], opts ...core.AggOption) (int64, error) {
	add := func(a, b int64) int64 { return a + b }
	return core.Aggregate(context.Background(), r, core.AggFuncs[int64, int64, int64]{
		Zero:    func() int64 { return 0 },
		SeqOp:   add,
		MergeOp: add,
		SplitOp: func(u int64, _, _ int) int64 { return u },
	}, append([]core.AggOption{core.WithStrategy(core.StrategyTree)}, opts...)...)
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestTreeAggregateSum(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		for _, parts := range []int{1, 3, 8, 16} {
			t.Run(fmt.Sprintf("depth=%d/parts=%d", depth, parts), func(t *testing.T) {
				ctx := newContext(t, 3, 2)
				got, err := treeSum(rdd.FromSlice(ctx, seq(200), parts), core.WithDepth(depth))
				if err != nil {
					t.Fatal(err)
				}
				if got != 19900 {
					t.Fatalf("sum = %d, want 19900", got)
				}
			})
		}
	}
}

func TestTreeAggregateCleansBlocks(t *testing.T) {
	ctx := newContext(t, 2, 1)
	stages := ctx.Registry().Histogram(metrics.HistSchedStageNS)
	for _, g := range []struct{ parts, rounds int }{{4, 0}, {9, 1}, {16, 1}} {
		before := stages.Count()
		if got, err := treeSum(rdd.FromSlice(ctx, seq(10), g.parts)); err != nil {
			t.Fatal(err)
		} else if got != 45 {
			t.Fatalf("%d parts: sum = %d, want 45", g.parts, got)
		}
		want := int64(1 + g.rounds) // stage 1 and the combine rounds
		if g.rounds > 0 {
			want++ // the cleanup job
		}
		if got := stages.Count() - before; got != want {
			t.Fatalf("%d parts: %d stages ran, want %d", g.parts, got, want)
		}
		// No tree-round blocks may survive the action.
		out, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			return []byte{byte(ec.Store.DeletePrefix("agg/"))}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range out {
			if p[0] != 0 {
				t.Fatalf("%d parts: executor %d leaked %d tree-round blocks", g.parts, i, p[0])
			}
		}
	}
}
