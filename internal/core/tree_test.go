package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// TestTreeRounds: the tree's round plan at depths 1–3 over 1 to 16
// partitions, each row naming its combine rounds, with the sparse
// aggregator on the generic plane (serde's frames) and on the f64 one
// (frames from the support, the compact Fold, a combine task and the
// driver adding each frame from the wire). Every run returns the
// sequential fold bit for bit. Every round but the last puts a block
// per task, and the next round fetches each once; the cleanup job runs
// only then; and no block survives. The packed Fold runs instead of
// SeqOp on every stage-1 task, also where the partition's support
// passes ½ of dim (the dense rows): its packed encode declines there,
// and the compact accumulator is expanded rather than folded again.
// On the f64 plane every dense accumulator is recycled once its frame is
// encoded: a combine task's, and a stage-1 task's unless it stayed
// compact.
func TestTreeRounds(t *testing.T) {
	const dim = 3001
	ctx := testContext(t, 3, 2)
	count := func(name string) int64 { return ctx.MergedMetrics().Histogram(name).Count() }
	for _, g := range []struct {
		depth, parts int
		rounds       []int // the combine rounds' task counts
		dense        bool  // about 12 elements in 16 per partition, not 1
	}{
		{depth: 1, parts: 1}, {depth: 1, parts: 3}, {depth: 1, parts: 8}, {depth: 1, parts: 16},
		{depth: 2, parts: 1}, {depth: 2, parts: 3}, {depth: 2, parts: 4},
		{depth: 2, parts: 8, rounds: []int{3}}, {depth: 2, parts: 9, rounds: []int{3}},
		{depth: 2, parts: 12, rounds: []int{3}}, {depth: 2, parts: 16, rounds: []int{4}},
		{depth: 3, parts: 1}, {depth: 3, parts: 3},
		{depth: 3, parts: 8, rounds: []int{4}}, {depth: 3, parts: 16, rounds: []int{6, 2}},
		{depth: 2, parts: 4, dense: true}, {depth: 2, parts: 9, rounds: []int{3}, dense: true},
	} {
		name := fmt.Sprintf("depth=%d/parts=%d", g.depth, g.parts)
		per16 := 1
		if g.dense {
			name, per16 = name+"/dense", 12
		}
		t.Run(name, func(t *testing.T) {
			want := sparseWant(g.parts, dim, per16)
			r := sparseRDD(ctx, g.parts, dim, per16)
			stored, stages := 0, int64(1)
			if n := len(g.rounds); n > 0 {
				stored, stages = g.parts, int64(n+2) // stage 1, the combine rounds, the cleanup job
				for _, c := range g.rounds[:n-1] {
					stored += c
				}
			}
			for _, packs := range []bool{false, true} {
				var folds, seqOps, recycled atomic.Int64
				fns := sparseFuncs(dim, &folds)
				seqOp := fns.SeqOp
				fns.SeqOp = func(acc []float64, sp sparsePart) []float64 {
					seqOps.Add(1)
					return seqOp(acc, sp)
				}
				puts, gets, ran := count(metrics.HistBlockPutBytes), count(metrics.HistBlockGetBytes), count(metrics.HistSchedStageNS)
				opts := []AggOption{WithStrategy(StrategyTree), WithDepth(g.depth)}
				var got []float64
				var err error
				if packs {
					got, err = aggregateWith(context.Background(), r, fns, makeVec, func([]float64) { recycled.Add(1) }, opts...)
				} else {
					got, err = Aggregate(context.Background(), r, genericOf(fns, nil), opts...)
				}
				if err != nil {
					t.Fatalf("packs=%v: %v", packs, err)
				}
				bitsEqual(t, fmt.Sprintf("packs=%v", packs), got, want)
				if p, q := count(metrics.HistBlockPutBytes)-puts, count(metrics.HistBlockGetBytes)-gets; p != int64(stored) || q != int64(stored) {
					t.Errorf("packs=%v: %d blocks put and %d fetched, want %d", packs, p, q, stored)
				}
				if n := count(metrics.HistSchedStageNS) - ran; n != stages {
					t.Errorf("packs=%v: %d stages ran, want %d", packs, n, stages)
				}
				wantFolds, wantSeqOps, wantRecycled := int64(g.parts), int64(0), int64(0)
				if g.dense {
					wantRecycled = int64(g.parts)
				}
				for _, c := range g.rounds {
					wantRecycled += int64(c)
				}
				if !packs {
					wantFolds, wantSeqOps, wantRecycled = 0, int64(g.parts), 0
				}
				if f, s, c := folds.Load(), seqOps.Load(), recycled.Load(); f != wantFolds || s != wantSeqOps || c != wantRecycled {
					t.Errorf("packs=%v: %d partitions folded compact, %d elements by SeqOp and %d accumulators recycled, want %d, %d and %d",
						packs, f, s, c, wantFolds, wantSeqOps, wantRecycled)
				}
				left, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
					return []byte{byte(ec.Store.DeletePrefix("agg/"))}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range left {
					if p[0] != 0 {
						t.Errorf("packs=%v: executor %d kept %d blocks", packs, i, p[0])
					}
				}
			}
		})
	}
}

// TestDriverSumsFramesInTaskOrder: the driver's end of the tree and of
// the IMM gather adds the per-task frames in task order from +0.0, on
// both planes. Partition p — one per executor — holds one term whose
// float64 sum moves with the order: 1e16 − 1e16 + 1 is 1 in task
// order and 0 reversed, so a reader that summed the frames any other
// way round would return another value.
func TestDriverSumsFramesInTaskOrder(t *testing.T) {
	const execs = 3
	terms := []float64{1e16, -1e16, 1}
	seqOp := func(acc []float64, v int64) []float64 {
		acc[0] += terms[v]
		return acc
	}
	want := []float64{0}
	for _, x := range terms {
		want[0] += x
	}
	if reversed := terms[2] + terms[1] + terms[0]; reversed == want[0] {
		t.Fatalf("terms are not order-sensitive: %v both ways", reversed)
	}
	ctx := testContext(t, execs, 1)
	r := vectorRDD(ctx, execs, execs)
	fns := F64Funcs[int64]{Dim: 1, SeqOp: seqOp}
	for _, s := range []Strategy{StrategyTree, StrategyIMM} {
		got, err := Aggregate(context.Background(), r, genericOf(fns, nil), WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, fmt.Sprintf("generic/%v", s), got, want)
		if got, err = AggregateF64(context.Background(), r, fns, WithStrategy(s)); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, fmt.Sprintf("f64/%v", s), got, want)
	}
}

func TestIntRoot(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{1, 2, 1}, {2, 2, 2}, {4, 2, 2}, {5, 2, 3}, {9, 2, 3}, {10, 2, 4},
		{8, 3, 2}, {27, 3, 3}, {28, 3, 4}, {100, 1, 100},
	}
	for _, c := range cases {
		if got := intRoot(c.n, c.k); got != c.want {
			t.Errorf("intRoot(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// sumFuncs sums int64 elements: a scalar aggregator, on core's serde
// path.
func sumFuncs() AggFuncs[int64, int64, int64] {
	add := func(a, b int64) int64 { return a + b }
	return AggFuncs[int64, int64, int64]{
		Zero:    func() int64 { return 0 },
		SeqOp:   add,
		MergeOp: add,
		SplitOp: func(u int64, _, _ int) int64 { return u },
	}
}

func TestQuickTreeEqualsSerialSum(t *testing.T) {
	ctx := testContext(t, 3, 2)
	f := func(vals []int64, partsRaw uint8) bool {
		parts := int(partsRaw%6) + 1
		r := rdd.FromSlice(ctx, vals, parts)
		got, err := Aggregate(context.Background(), r, sumFuncs(), WithStrategy(StrategyTree))
		if err != nil {
			return false
		}
		var want int64
		for _, v := range vals {
			want += v
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestStragglerTree: combine rounds follow the recorded owners. Every
// task message to executor 0 is delayed, so speculation moves stage-1
// tasks, and their blocks, off their round-robin home. Nine partitions
// at depth 2 give one combine round of three tasks, which must fetch
// each block from the executor that won its task: a fetch from the
// round-robin home of a moved block would fail the aggregate.
func TestStragglerTree(t *testing.T) {
	const name = "core-strag-tree"
	slow := transport.Addr("exec/" + name + "/0/tasks") // executor 0's task channel
	net := transport.NewFaulty(transport.NewMem(), 1,
		transport.StragglerRule(func(a transport.Addr) bool { return a == slow }, 200*time.Millisecond, 0))
	ctx, err := rdd.NewContext(rdd.Config{Name: name, NumExecutors: 4, CoresPerExecutor: 1, Network: net, Speculation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	vals := make([]int64, 512)
	var want int64
	for i := range vals {
		vals[i] = int64(i)
		want += int64(i)
	}
	slowed := rdd.Map(rdd.FromSlice(ctx, vals, 9), func(v int64) int64 {
		time.Sleep(time.Millisecond)
		return v
	})
	got, err := Aggregate(context.Background(), slowed, sumFuncs(), WithStrategy(StrategyTree), WithDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum %d, want %d", got, want)
	}
	rec := ctx.Metrics()
	if rec.Count(metrics.CounterSpecWon) == 0 && rec.Count(metrics.CounterSpecMigrated) == 0 {
		t.Fatal("no task left the straggler: the combine round read no moved block")
	}
	if got := ctx.MergedMetrics().Histogram(metrics.HistBlockGetBytes).Count(); got != 9 {
		t.Fatalf("the combine round fetched %d blocks, want 9", got)
	}
	if n := rec.Count(metrics.CounterResultDropped); n != 0 {
		t.Fatalf("%d results were dropped on the floor", n)
	}
}
