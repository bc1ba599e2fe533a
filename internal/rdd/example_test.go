package rdd_test

import (
	"fmt"
	"log"

	"sparker/internal/rdd"
)

// A complete dataflow: transform, shuffle, collect.
func ExampleReduceByKey() {
	ctx, err := rdd.NewContext(rdd.Config{Name: "ex-shuffle", NumExecutors: 2, CoresPerExecutor: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()

	nums := rdd.FromSlice(ctx, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4)
	byParity := rdd.KeyBy(nums, func(v int64) string {
		if v%2 == 0 {
			return "even"
		}
		return "odd"
	})
	sums, err := rdd.ReduceByKey(byParity, func(a, b int64) int64 { return a + b }, 2)
	if err != nil {
		log.Fatal(err)
	}
	pairs, err := rdd.Collect(sums)
	if err != nil {
		log.Fatal(err)
	}
	total := map[string]int64{}
	for _, p := range pairs {
		total[p.Key] = p.Value
	}
	fmt.Println("even:", total["even"], "odd:", total["odd"])
	// Output: even: 30 odd: 25
}

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
