package core_test

import (
	"context"
	"fmt"
	"log"

	"sparker/internal/core"
	"sparker/internal/rdd"
)

// The split aggregation interface end to end: aggregate a vector over
// a 3-executor cluster with the reduction running as ring
// reduce-scatter.
func ExampleAggregate() {
	ctx, err := rdd.NewContext(rdd.Config{Name: "ex-split", NumExecutors: 3, CoresPerExecutor: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()

	samples := rdd.FromSlice(ctx, []int64{0, 1, 2, 3, 4, 5, 6, 7}, 4)
	sum, err := core.Aggregate(context.Background(), samples, core.AggFuncs[int64, []float64, []float64]{
		Zero: func() []float64 { return make([]float64, 4) },
		SeqOp: func(acc []float64, v int64) []float64 {
			acc[int(v)%4] += float64(v)
			return acc
		},
		MergeOp:  core.AddF64, // IMM, executor-local
		SplitOp:  core.SplitSliceCopy[float64],
		ReduceOp: core.AddF64, // on segments
		ConcatOp: core.ConcatSlices[float64],
	}, core.WithParallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sum)
	// Output: [4 6 8 10]
}

// Derived callbacks: the same aggregation with splitOp/reduceOp/
// concatOp synthesized from the aggregator's structure.
func ExampleDerivedFuncs() {
	ctx, err := rdd.NewContext(rdd.Config{Name: "ex-auto", NumExecutors: 2, CoresPerExecutor: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()

	type stats struct {
		Sum   []float64
		Count int64
	}
	samples := rdd.FromSlice(ctx, []int64{1, 2, 3, 4}, 2)
	fns, rebuild, err := core.DerivedFuncs[int64](
		func() stats { return stats{Sum: make([]float64, 2)} },
		func(s stats, v int64) stats {
			s.Sum[int(v)%2] += float64(v)
			s.Count++
			return s
		})
	if err != nil {
		log.Fatal(err)
	}
	seg, err := core.Aggregate(context.Background(), samples, fns)
	if err != nil {
		log.Fatal(err)
	}
	out := rebuild(seg)
	fmt.Println(out.Sum, out.Count)
	// Output: [6 4] 4
}

func ExampleSplitSlice() {
	a := []float64{0, 1, 2, 3, 4, 5, 6}
	for i := 0; i < 3; i++ {
		fmt.Println(core.SplitSlice(a, i, 3))
	}
	// Output:
	// [0 1]
	// [2 3]
	// [4 5 6]
}
