package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sparker/internal/collective"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/serde"
)

func testContext(t *testing.T, execs, cores int) *rdd.Context {
	t.Helper()
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             fmt.Sprintf("core-%s", t.Name()),
		NumExecutors:     execs,
		CoresPerExecutor: cores,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

// vectorRDD builds an RDD of int64 samples; the aggregator sums
// sample-dependent vectors of the given dimension, mimicking a gradient
// aggregation.
func vectorRDD(ctx *rdd.Context, samples, parts int) *rdd.RDD[int64] {
	return rdd.Generate(ctx, parts, func(part int) ([]int64, error) {
		lo := part * samples / parts
		hi := (part + 1) * samples / parts
		out := make([]int64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, int64(i))
		}
		return out, nil
	})
}

func expectedVector(samples, dim int) []float64 {
	want := make([]float64, dim)
	for i := 0; i < samples; i++ {
		for d := range want {
			want[d] += float64(i%7) + float64(d)
		}
	}
	return want
}

func vecZero(dim int) func() []float64 {
	return func() []float64 { return make([]float64, dim) }
}

func vecSeqOp(acc []float64, v int64) []float64 {
	for d := range acc {
		acc[d] += float64(v%7) + float64(d)
	}
	return acc
}

func vecsClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// fillChannels returns ctx with a ring chunk size small enough that a
// dim-element float64 aggregator fills par channels
// (collective.RingChannels), so a test with fixed-stride Ops runs the
// channel count it names. Stride-less ops always run it.
func fillChannels(ctx context.Context, dim, par int) context.Context {
	return collective.WithChunkBytes(ctx, 8*dim/par)
}

// ringSteps is the number of ring steps the executors of ctx have run.
// A healthy split aggregation over n executors on p channels runs
// n·p·(n−1), allreduce twice that; a failed one runs at least n·p, since
// every channel of every rank starts step 0.
func ringSteps(ctx *rdd.Context) int64 {
	return ctx.MergedMetrics().Histogram(metrics.HistRingStepNS).Count()
}

// phases is the number of ring passes a strategy makes: reduce-scatter,
// plus the allgather for allreduce.
func phases(s Strategy) int {
	if s == StrategyAllReduce {
		return 2
	}
	return 1
}

func TestSplitVectorSum(t *testing.T) {
	const samples, dim = 300, 97 // dim deliberately not divisible by segments
	for _, execs := range []int{1, 2, 3, 5} {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("execs=%d/par=%d", execs, par), func(t *testing.T) {
				ctx := testContext(t, execs, 2)
				r := vectorRDD(ctx, samples, execs*3)
				got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
					t.Fatalf("split aggregate result mismatch")
				}
				// Serde ops have no stride: P is not narrowed.
				if got, want := ringSteps(ctx), int64(execs*par*(execs-1)); got != want {
					t.Fatalf("%d ring steps, want %d (%d channels)", got, want, par)
				}
			})
		}
	}
}

func TestIMMVectorSum(t *testing.T) {
	const samples, dim = 200, 33
	for _, execs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("execs=%d", execs), func(t *testing.T) {
			ctx := testContext(t, execs, 2)
			r := vectorRDD(ctx, samples, execs*2+1)
			got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyIMM))
			if err != nil {
				t.Fatal(err)
			}
			if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
				t.Fatalf("IMM aggregate result mismatch")
			}
		})
	}
}

func TestThreeStrategiesAgree(t *testing.T) {
	const samples, dim = 250, 41
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 9).Cache()

	tree, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyTree), WithDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	imm, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyIMM))
	if err != nil {
		t.Fatal(err)
	}
	split, err := Aggregate(context.Background(), r, vecFuncs(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(tree, imm, 1e-9) || !vecsClose(tree, split, 1e-9) {
		t.Fatalf("strategies disagree:\ntree=%v\nimm=%v\nsplit=%v", tree[:3], imm[:3], split[:3])
	}
}

func TestSplitFewerPartitionsThanExecutors(t *testing.T) {
	// Executors with no data must still participate in the ring with a
	// zero aggregator.
	const samples, dim = 50, 16
	ctx := testContext(t, 4, 1)
	r := vectorRDD(ctx, samples, 2) // only 2 of 4 executors get tasks
	got, err := Aggregate(context.Background(), r, vecFuncs(dim))
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
		t.Fatal("result wrong when some executors hold no partitions")
	}
}

func TestSplitDimSmallerThanSegments(t *testing.T) {
	// dim < P*N yields empty segments; concat must still reconstruct.
	const samples, dim = 40, 3
	ctx := testContext(t, 3, 1)
	r := vectorRDD(ctx, samples, 3)
	got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
		t.Fatal("result wrong with empty segments")
	}
}

// The critical IMM recovery property: a task that merges its result
// into the shared aggregator and THEN fails must not double-count after
// the stage is resubmitted.
func TestIMMStageRetryDoesNotDoubleCount(t *testing.T) {
	const samples, dim = 120, 8
	ctx := testContext(t, 2, 2)
	var poisoned int32
	r := rdd.Generate(ctx, 4, func(part int) ([]int64, error) {
		out := make([]int64, 0, samples/4)
		for i := part * samples / 4; i < (part+1)*samples/4; i++ {
			out = append(out, int64(i))
		}
		return out, nil
	})
	// seqOp fails the first time partition 3's fold finishes — after
	// sibling tasks have already merged into the shared value.
	seqOp := func(acc []float64, v int64) []float64 {
		if v == int64(samples-1) && atomic.CompareAndSwapInt32(&poisoned, 0, 1) {
			panic("injected failure after partial stage progress")
		}
		return vecSeqOp(acc, v)
	}
	f := vecFuncs(dim)
	f.SeqOp = seqOp
	got, err := Aggregate(context.Background(), r, f, WithStrategy(StrategyIMM))
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&poisoned) != 1 {
		t.Fatal("failure was never injected")
	}
	if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
		t.Fatalf("stage retry double-counted: got %v want %v", got, expectedVector(samples, dim))
	}
}

func TestSplitStageRetry(t *testing.T) {
	const samples, dim = 80, 12
	ctx := testContext(t, 2, 2)
	var poisoned int32
	r := vectorRDD(ctx, samples, 4)
	seqOp := func(acc []float64, v int64) []float64 {
		if v == 0 && atomic.CompareAndSwapInt32(&poisoned, 0, 1) {
			panic("injected")
		}
		return vecSeqOp(acc, v)
	}
	f := vecFuncs(dim)
	f.SeqOp = seqOp
	got, err := Aggregate(context.Background(), r, f)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
		t.Fatal("split aggregate wrong after stage retry")
	}
}

// --- U ≠ V: the Figure-7 scenario ------------------------------------

// figAgg mirrors the paper's Agg: a struct of two arrays with an add
// method for samples. It is the aggregator type U.
type figAgg struct {
	Sum1, Sum2 []float64
}

func (a figAgg) MarshalBinaryTo(dst []byte) []byte {
	dst = serde.AppendInt(dst, len(a.Sum1))
	for _, f := range a.Sum1 {
		dst = serde.AppendFloat64(dst, f)
	}
	dst = serde.AppendInt(dst, len(a.Sum2))
	for _, f := range a.Sum2 {
		dst = serde.AppendFloat64(dst, f)
	}
	return dst
}

func (a *figAgg) UnmarshalBinaryFrom(src []byte) (int, error) {
	n1 := serde.IntAt(src, 0)
	off := 8
	a.Sum1 = make([]float64, n1)
	for i := range a.Sum1 {
		a.Sum1[i] = serde.Float64At(src, off)
		off += 8
	}
	n2 := serde.IntAt(src, off)
	off += 8
	a.Sum2 = make([]float64, n2)
	for i := range a.Sum2 {
		a.Sum2[i] = serde.Float64At(src, off)
		off += 8
	}
	return off, nil
}

// figSeg mirrors AggSeg: the merge-only segment type V.
type figSeg struct {
	Sum1, Sum2 []float64
}

func (s figSeg) MarshalBinaryTo(dst []byte) []byte {
	return figAgg{s.Sum1, s.Sum2}.MarshalBinaryTo(dst)
}

func (s *figSeg) UnmarshalBinaryFrom(src []byte) (int, error) {
	var a figAgg
	n, err := a.UnmarshalBinaryFrom(src)
	s.Sum1, s.Sum2 = a.Sum1, a.Sum2
	return n, err
}

func init() {
	serde.RegisterSelf(figAgg{}, func() serde.Unmarshaler { return new(figAgg) })
	serde.RegisterSelf(figSeg{}, func() serde.Unmarshaler { return new(figSeg) })
}

func TestSplitStructOfArrays(t *testing.T) {
	const dim1, dim2, samples = 31, 17, 150
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6)

	zero := func() figAgg {
		return figAgg{Sum1: make([]float64, dim1), Sum2: make([]float64, dim2)}
	}
	seqOp := func(a figAgg, v int64) figAgg {
		for i := range a.Sum1 {
			a.Sum1[i] += float64(v)
		}
		for i := range a.Sum2 {
			a.Sum2[i] += float64(v) * 2
		}
		return a
	}
	mergeOp := func(a, b figAgg) figAgg {
		AddF64(a.Sum1, b.Sum1)
		AddF64(a.Sum2, b.Sum2)
		return a
	}
	splitOp := func(a figAgg, i, n int) figSeg {
		return figSeg{
			Sum1: SplitSliceCopy(a.Sum1, i, n),
			Sum2: SplitSliceCopy(a.Sum2, i, n),
		}
	}
	reduceOp := func(a, b figSeg) figSeg {
		AddF64(a.Sum1, b.Sum1)
		AddF64(a.Sum2, b.Sum2)
		return a
	}
	concatOp := func(segs []figSeg) figSeg {
		s1 := make([][]float64, len(segs))
		s2 := make([][]float64, len(segs))
		for i, s := range segs {
			s1[i], s2[i] = s.Sum1, s.Sum2
		}
		return figSeg{Sum1: ConcatSlices(s1), Sum2: ConcatSlices(s2)}
	}

	got, err := Aggregate(context.Background(), r, AggFuncs[int64, figAgg, figSeg]{
		Zero: zero, SeqOp: seqOp, MergeOp: mergeOp, SplitOp: splitOp, ReduceOp: reduceOp, ConcatOp: concatOp,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < samples; i++ {
		sum += float64(i)
	}
	want1 := make([]float64, dim1)
	want2 := make([]float64, dim2)
	for i := range want1 {
		want1[i] = sum
	}
	for i := range want2 {
		want2[i] = 2 * sum
	}
	if !vecsClose(got.Sum1, want1, 1e-9) || !vecsClose(got.Sum2, want2, 1e-9) {
		t.Fatal("struct-of-arrays split aggregation mismatch")
	}
}

// --- slice helper properties -------------------------------------------

func TestSplitConcatIdentity(t *testing.T) {
	f := func(vals []float64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		segs := make([][]float64, n)
		for i := 0; i < n; i++ {
			segs[i] = SplitSliceCopy(vals, i, n)
		}
		got := ConcatSlices(segs)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] && !(math.IsNaN(got[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitSliceBalance(t *testing.T) {
	a := make([]float64, 101)
	const n = 7
	min, max := len(a), 0
	for i := 0; i < n; i++ {
		l := len(SplitSlice(a, i, n))
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 1 {
		t.Fatalf("segment sizes unbalanced: min=%d max=%d", min, max)
	}
}

func TestSplitSlicePanics(t *testing.T) {
	for _, c := range [][2]int{{-1, 4}, {4, 4}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SplitSlice(%d,%d) should panic", c[0], c[1])
				}
			}()
			SplitSlice([]float64{1}, c[0], c[1])
		}()
	}
}

func TestQuickSplitVsTreeAgree(t *testing.T) {
	ctx := testContext(t, 3, 2)
	f := func(seed int64, dimRaw, partsRaw uint8) bool {
		dim := int(dimRaw%50) + 1
		parts := int(partsRaw%6) + 1
		r := rdd.Generate(ctx, parts, func(part int) ([]int64, error) {
			out := make([]int64, 20)
			s := seed + int64(part)
			for i := range out {
				s = s*6364136223846793005 + 1442695040888963407
				out[i] = s % 100
			}
			return out, nil
		})
		tree, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyTree), WithDepth(2))
		if err != nil {
			return false
		}
		split, err := Aggregate(context.Background(), r, vecFuncs(dim), WithParallelism(2))
		if err != nil {
			return false
		}
		return vecsClose(tree, split, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestConcatSlicesEmpty(t *testing.T) {
	if got := ConcatSlices[float64](nil); len(got) != 0 {
		t.Fatalf("ConcatSlices(nil) = %v", got)
	}
	if got := ConcatSlices([][]float64{{}, {1}, {}}); !reflect.DeepEqual(got, []float64{1}) {
		t.Fatalf("got %v", got)
	}
}

func TestSplitParallelMatchesSerial(t *testing.T) {
	agg := make([]float64, 103)
	for i := range agg {
		agg[i] = float64(i) * 1.5
	}
	for _, workers := range []int{1, 2, 4, 16, 200} {
		segs := splitParallel(agg, 12, workers, SplitSliceCopy[float64])
		got := ConcatSlices(segs)
		if len(got) != len(agg) {
			t.Fatalf("workers=%d: wrong total length %d", workers, len(got))
		}
		for i := range agg {
			if got[i] != agg[i] {
				t.Fatalf("workers=%d: mismatch at %d", workers, i)
			}
		}
	}
	// Single segment short-circuits.
	one := splitParallel(agg, 1, 8, SplitSliceCopy[float64])
	if len(one) != 1 || len(one[0]) != len(agg) {
		t.Fatal("single-segment split wrong")
	}
}
