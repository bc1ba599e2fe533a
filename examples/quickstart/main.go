// Quickstart: the split aggregation interface in five minutes.
//
// Builds an RDD of samples on a 4-executor in-process cluster, then
// aggregates a 64k-dimension vector through the unified core.Aggregate
// entry point three ways — Spark's treeAggregate, tree aggregation
// with in-memory merge, and Sparker's splitAggregate — verifying all
// three agree and printing their times.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"sparker/internal/core"
	"sparker/internal/rdd"
)

const dim = 1 << 16 // 64k-dimensional aggregator (512 KB)

func main() {
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "quickstart",
		NumExecutors:     4,
		CoresPerExecutor: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()

	// 64 partitions of synthetic samples, cached like a training set.
	samples := rdd.Generate(ctx, 64, func(part int) ([]int64, error) {
		out := make([]int64, 1000)
		for i := range out {
			out[i] = int64(part*1000 + i)
		}
		return out, nil
	}).Cache()
	if _, err := rdd.Count(samples); err != nil { // materialize the cache
		log.Fatal(err)
	}

	// The aggregation everyone writes: fold samples into a big vector.
	// One callback bundle serves every strategy; SplitOp/ReduceOp/
	// ConcatOp are only exercised by the ring-based strategies.
	fns := core.AggFuncs[int64, []float64, []float64]{
		Zero: func() []float64 { return make([]float64, dim) },
		SeqOp: func(acc []float64, v int64) []float64 {
			acc[int(v)%dim] += float64(v % 97)
			return acc
		},
		MergeOp:  core.AddF64,
		SplitOp:  core.SplitSliceCopy[float64],
		ReduceOp: core.AddF64,
		ConcatOp: core.ConcatSlices[float64],
	}

	run := func(name string, opts ...core.AggOption) []float64 {
		start := time.Now()
		out, err := core.Aggregate(context.Background(), samples, fns, opts...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8v  checksum %.0f\n", name, time.Since(start).Round(time.Millisecond), sum(out))
		return out
	}

	tree := run("treeAggregate", core.WithStrategy(core.StrategyTree), core.WithDepth(2))
	imm := run("treeAggregate + IMM", core.WithStrategy(core.StrategyIMM))
	// The default strategy is splitAggregate; a per-step deadline turns
	// a hung peer into a classified error (and a re-run of the
	// aggregation as tree+IMM) instead of a hang.
	split := run("splitAggregate",
		core.WithParallelism(4), core.WithDeadline(30*time.Second))

	if !equal(tree, imm) || !equal(tree, split) {
		log.Fatal("strategies disagree!")
	}
	fmt.Println("\nall three strategies produced identical aggregates ✓")
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func equal(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}
