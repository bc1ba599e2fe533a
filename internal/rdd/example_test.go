package rdd_test

import (
	"fmt"
	"log"

	"sparker/internal/rdd"
)

// Spark's treeAggregate on this engine.
func ExampleTreeAggregate() {
	ctx, err := rdd.NewContext(rdd.Config{Name: "ex-tree", NumExecutors: 2, CoresPerExecutor: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()

	r := rdd.FromSlice(ctx, []int64{1, 2, 3, 4, 5}, 3)
	sum, err := rdd.TreeAggregate(r,
		func() int64 { return 0 },
		func(acc int64, v int64) int64 { return acc + v },
		func(a, b int64) int64 { return a + b },
		rdd.AggregateOptions{Depth: 2}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sum)
	// Output: 15
}
