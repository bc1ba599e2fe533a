// Derived split aggregation: the paper's future-work idea (§6) —
// "generate split aggregation code without user-defined code" — in
// action. The aggregator is a struct of two arrays plus scalars
// (exactly Figure 7's shape); core.DerivedFuncs derives
// splitOp/reduceOp/concatOp from its structure by reflection, so the
// user writes only what treeAggregate already required.
//
//	go run ./examples/autosplit
package main

import (
	"context"
	"fmt"
	"log"

	"sparker/internal/core"
	"sparker/internal/rdd"
)

// TrainingStats is a Figure-7-style aggregator: two arrays and two
// scalars. No split/merge/concat code anywhere in this file.
type TrainingStats struct {
	GradSum  []float64
	FeatSums []float64
	Loss     float64
	Count    int64
}

func main() {
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "autosplit",
		NumExecutors:     4,
		CoresPerExecutor: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()

	const dim = 4096
	samples := rdd.Generate(ctx, 32, func(part int) ([]int64, error) {
		out := make([]int64, 500)
		for i := range out {
			out[i] = int64(part*500 + i)
		}
		return out, nil
	})

	zero := func() TrainingStats {
		return TrainingStats{
			GradSum:  make([]float64, dim),
			FeatSums: make([]float64, dim/8),
		}
	}
	seqOp := func(s TrainingStats, v int64) TrainingStats {
		s.GradSum[int(v)%dim] += float64(v%13) - 6
		s.FeatSums[int(v)%(dim/8)] += 1
		s.Loss += float64(v%7) * 0.25
		s.Count++
		return s
	}

	fns, rebuild, err := core.DerivedFuncs[int64](zero, seqOp)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := core.Aggregate(context.Background(), samples, fns, core.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	stats := rebuild(seg)
	fmt.Printf("aggregated %d samples over the ring with derived callbacks\n", stats.Count)
	fmt.Printf("mean loss: %.4f\n", stats.Loss/float64(stats.Count))
	var gradMass, featMass float64
	for _, g := range stats.GradSum {
		gradMass += g
	}
	for _, f := range stats.FeatSums {
		featMass += f
	}
	fmt.Printf("gradient mass: %.0f, feature observations: %.0f\n", gradMass, featMass)

	if stats.Count != 16000 || featMass != 16000 {
		log.Fatal("aggregation lost samples!")
	}
	fmt.Println("derived split aggregation is exact ✓")
}
