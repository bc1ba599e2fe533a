package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sparker/internal/metrics"
	"sparker/internal/rdd"
)

// TestTreeRounds: the tree's rounds over 4, 9 and 16 partitions at
// depth 2 — stage 1 is the last round at 4, a combine round of 3 or 4
// tasks is at 9 and 16 — with serde's nil hooks and with core's (frames
// from the support, the compact Fold, the driver adding each frame from
// the wire). Every run returns the sequential fold bit for bit. A block
// is put, and fetched, for each stage-1 partition only when a combine
// round follows; the cleanup job runs only then; and no block survives.
func TestTreeRounds(t *testing.T) {
	const dim = 3001
	ctx := testContext(t, 3, 2)
	count := func(name string) int64 { return ctx.MergedMetrics().Histogram(name).Count() }
	for _, g := range []struct{ parts, combiners int }{{4, 0}, {9, 3}, {16, 4}} {
		want := sparseWant(g.parts, dim)
		r := sparseRDD(ctx, g.parts, dim)
		stored, stages := 0, int64(1)
		if g.combiners > 0 {
			stored, stages = g.parts, 3 // stage 1, the combine round, the cleanup job
		}
		for _, hooked := range []bool{false, true} {
			name := fmt.Sprintf("parts=%d/hooks=%v", g.parts, hooked)
			var folds atomic.Int64
			fns := sparseFuncs(dim, &folds)
			var hooks *rdd.TreeHooks[sparsePart, []float64]
			if hooked {
				hooks = fns.treeHooks()
			}
			puts, gets, ran := count(metrics.HistBlockPutBytes), count(metrics.HistBlockGetBytes), count(metrics.HistSchedStageNS)
			got, err := rdd.TreeAggregate(r, fns.Zero, fns.SeqOp, fns.MergeOp, rdd.AggregateOptions{Depth: 2}, hooks)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bitsEqual(t, name, got, want)
			if p, q := count(metrics.HistBlockPutBytes)-puts, count(metrics.HistBlockGetBytes)-gets; p != int64(stored) || q != int64(stored) {
				t.Errorf("%s: %d blocks put and %d fetched, want %d", name, p, q, stored)
			}
			if n := count(metrics.HistSchedStageNS) - ran; n != stages {
				t.Errorf("%s: %d stages ran, want %d", name, n, stages)
			}
			if f, want := folds.Load(), int64(g.parts); hooked && f != want {
				t.Errorf("%s: %d partitions folded compact, want %d", name, f, want)
			}
			left, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
				return []byte{byte(ec.Store.DeletePrefix("agg/"))}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range left {
				if p[0] != 0 {
					t.Errorf("%s: executor %d kept %d blocks", name, i, p[0])
				}
			}
		}
	}
}
