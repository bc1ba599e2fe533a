package core

import (
	"context"
	"fmt"
	"testing"

	"sparker/internal/rdd"
)

func TestAllReduceMatchesSplit(t *testing.T) {
	const samples, dim = 240, 53
	for _, execs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("execs=%d", execs), func(t *testing.T) {
			ctx := testContext(t, execs, 2)
			r := vectorRDD(ctx, samples, execs*3).Cache()
			gather, err := Aggregate(context.Background(), r, vecFuncs(dim))
			if err != nil {
				t.Fatal(err)
			}
			allred, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyAllReduce))
			if err != nil {
				t.Fatal(err)
			}
			if !vecsClose(gather, allred, 1e-9) {
				t.Fatal("allreduce result differs from gather-based split aggregation")
			}
		})
	}
}

func TestAllReduceKeepsResultOnExecutors(t *testing.T) {
	const samples, dim = 100, 24
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6)
	want, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyAllReduce), WithKeepKey("model/current"))
	if err != nil {
		t.Fatal(err)
	}
	// Every executor must hold an identical resident copy.
	payloads, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		obj := ec.MutObjs.Get("model/current")
		if obj == nil {
			return nil, fmt.Errorf("executor %d holds no resident result", ec.ID)
		}
		v := obj.Value().([]float64)
		if !vecsClose(v, want, 1e-9) {
			return nil, fmt.Errorf("executor %d copy diverges", ec.ID)
		}
		return []byte{1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 3 {
		t.Fatalf("checked %d executors", len(payloads))
	}
}

func TestAllReduceValidation(t *testing.T) {
	ctx := testContext(t, 2, 1)
	r := vectorRDD(ctx, 10, 2)
	_, err := Aggregate(context.Background(), r, vecFuncs(4), WithStrategy(StrategyAllReduce), WithParallelism(-2))
	if err == nil {
		t.Fatal("negative parallelism should fail")
	}
}

func TestAllReduceIterative(t *testing.T) {
	// Two consecutive rounds: the second round's seqOp could consume
	// the resident model; here we just assert both rounds stay correct
	// and the resident key updates.
	const samples, dim = 60, 10
	ctx := testContext(t, 2, 2)
	r := vectorRDD(ctx, samples, 4).Cache()
	first, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyAllReduce), WithKeepKey("w"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyAllReduce), WithKeepKey("w"))
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(first, second, 1e-9) {
		t.Fatal("identical rounds disagree")
	}
	_, err = ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		v := ec.MutObjs.Get("w").Value().([]float64)
		if !vecsClose(v, second, 1e-9) {
			return nil, fmt.Errorf("stale resident model on executor %d", ec.ID)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
