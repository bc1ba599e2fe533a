package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"sparker/internal/rdd"
)

// derivedAggregate is split aggregation with every splitting callback
// derived from U's structure: DerivedFuncs, Aggregate, rebuild.
func derivedAggregate[U any](r *rdd.RDD[int64], zero func() U, seqOp func(U, int64) U, opts ...AggOption) (U, error) {
	var zu U
	fns, rebuild, err := DerivedFuncs[int64](zero, seqOp)
	if err != nil {
		return zu, err
	}
	seg, err := Aggregate(context.Background(), r, fns, opts...)
	if err != nil {
		return zu, err
	}
	return rebuild(seg), nil
}

// gradAgg mimics an MLlib aggregator: gradient array + loss + count.
type gradAgg struct {
	Grad  []float64
	Hist  []int64
	Loss  float64
	Count int64
}

func TestDeriveRejectsUnsupported(t *testing.T) {
	type bad1 struct{ M map[string]int }
	if _, err := Derive(func() bad1 { return bad1{} }); err == nil {
		t.Error("map field should be rejected")
	}
	type bad2 struct{ s []float64 } //nolint:unused
	if _, err := Derive(func() bad2 { return bad2{} }); err == nil {
		t.Error("unexported field should be rejected")
	}
	type bad3 struct{ S string }
	if _, err := Derive(func() bad3 { return bad3{} }); err == nil {
		t.Error("string field should be rejected")
	}
	type empty struct{}
	if _, err := Derive(func() empty { return empty{} }); err == nil {
		t.Error("empty struct should be rejected")
	}
	if _, err := Derive(func() int { return 0 }); err == nil {
		t.Error("plain int should be rejected")
	}
}

func TestDerivedMergeSplitConcatRoundTrip(t *testing.T) {
	zero := func() gradAgg {
		return gradAgg{Grad: make([]float64, 13), Hist: make([]int64, 5)}
	}
	ops, err := Derive(zero)
	if err != nil {
		t.Fatal(err)
	}
	u := zero()
	for i := range u.Grad {
		u.Grad[i] = float64(i) * 1.5
	}
	for i := range u.Hist {
		u.Hist[i] = int64(i * 7)
	}
	u.Loss, u.Count = 3.25, 11

	const n = 4
	segs := make([]AutoSegment, n)
	for i := 0; i < n; i++ {
		segs[i] = ops.Split(u, i, n)
	}
	back := ops.Rebuild(ops.Concat(segs))
	if !reflect.DeepEqual(back, u) {
		t.Fatalf("split/concat roundtrip:\ngot  %+v\nwant %+v", back, u)
	}
}

func TestDerivedMergeAddsEverything(t *testing.T) {
	zero := func() gradAgg {
		return gradAgg{Grad: make([]float64, 3), Hist: make([]int64, 2)}
	}
	ops, err := Derive(zero)
	if err != nil {
		t.Fatal(err)
	}
	a := gradAgg{Grad: []float64{1, 2, 3}, Hist: []int64{1, 1}, Loss: 0.5, Count: 2}
	b := gradAgg{Grad: []float64{10, 20, 30}, Hist: []int64{5, 5}, Loss: 1.5, Count: 3}
	m := ops.Merge(a, b)
	want := gradAgg{Grad: []float64{11, 22, 33}, Hist: []int64{6, 6}, Loss: 2, Count: 5}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("merge = %+v, want %+v", m, want)
	}
}

func TestDerivedAggregateStruct(t *testing.T) {
	const samples, dim = 200, 37
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6)

	zero := func() gradAgg {
		return gradAgg{Grad: make([]float64, dim), Hist: make([]int64, 4)}
	}
	seqOp := func(a gradAgg, v int64) gradAgg {
		for i := range a.Grad {
			a.Grad[i] += float64(v) + float64(i)
		}
		a.Hist[int(v)%4]++
		a.Loss += float64(v) * 0.5
		a.Count++
		return a
	}
	got, err := derivedAggregate(r, zero, seqOp, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference.
	want := zero()
	for i := 0; i < samples; i++ {
		want = seqOp(want, int64(i))
	}
	if !vecsClose(got.Grad, want.Grad, 1e-9) {
		t.Fatal("Grad mismatch")
	}
	if !reflect.DeepEqual(got.Hist, want.Hist) {
		t.Fatalf("Hist = %v, want %v", got.Hist, want.Hist)
	}
	if math.Abs(got.Loss-want.Loss) > 1e-9 || got.Count != want.Count {
		t.Fatalf("Loss/Count = %v/%d, want %v/%d", got.Loss, got.Count, want.Loss, want.Count)
	}
}

func TestDerivedAggregatePlainSlice(t *testing.T) {
	const samples, dim = 120, 19
	ctx := testContext(t, 2, 2)
	r := vectorRDD(ctx, samples, 4)
	got, err := derivedAggregate(r, vecZero(dim), vecSeqOp)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
		t.Fatal("auto split on []float64 mismatch")
	}
}

func TestDerivedAggregateInt64Slice(t *testing.T) {
	ctx := testContext(t, 2, 1)
	r := vectorRDD(ctx, 60, 3)
	zero := func() []int64 { return make([]int64, 9) }
	seqOp := func(a []int64, v int64) []int64 {
		a[int(v)%9] += v
		return a
	}
	got, err := derivedAggregate(r, zero, seqOp)
	if err != nil {
		t.Fatal(err)
	}
	want := zero()
	for i := int64(0); i < 60; i++ {
		want = seqOp(want, i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestAutoAgreesWithManual(t *testing.T) {
	const samples, dim = 150, 23
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6).Cache()
	manual, err := Aggregate(context.Background(), r, vecFuncs(dim))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := derivedAggregate(r, vecZero(dim), vecSeqOp)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsClose(manual, auto, 1e-9) {
		t.Fatal("auto-derived and hand-written split aggregation disagree")
	}
}

func TestAutoSegmentSerdeRoundTrip(t *testing.T) {
	f := func(f64 []float64, i64raw []int8, sf []float64, siRaw []int8) bool {
		i64 := make([]int64, len(i64raw))
		for i, v := range i64raw {
			i64[i] = int64(v)
		}
		si := make([]int64, len(siRaw))
		for i, v := range siRaw {
			si[i] = int64(v)
		}
		in := AutoSegment{
			F64:     [][]float64{f64, {1, 2}},
			I64:     [][]int64{i64},
			ScalarF: sf,
			ScalarI: si,
		}
		wire := in.MarshalBinaryTo(nil)
		var out AutoSegment
		n, err := out.UnmarshalBinaryFrom(wire)
		if err != nil || n != len(wire) {
			return false
		}
		if len(out.F64) != 2 || len(out.I64) != 1 {
			return false
		}
		for i := range f64 {
			if out.F64[0][i] != f64[i] && !(math.IsNaN(out.F64[0][i]) && math.IsNaN(f64[i])) {
				return false
			}
		}
		return reflect.DeepEqual(out.I64[0], i64) && reflect.DeepEqual(out.ScalarI, si)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickDerivedSplitConcatIdentity(t *testing.T) {
	f := func(vals []float64, hist []int8, loss float64, count int8, nRaw uint8) bool {
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			loss = 1
		}
		n := int(nRaw%7) + 1
		h := make([]int64, len(hist))
		for i, v := range hist {
			h[i] = int64(v)
		}
		dim, hdim := len(vals), len(h)
		zero := func() gradAgg {
			return gradAgg{Grad: make([]float64, dim), Hist: make([]int64, hdim)}
		}
		ops, err := Derive(zero)
		if err != nil {
			return false
		}
		u := gradAgg{Grad: vals, Hist: h, Loss: loss, Count: int64(count)}
		segs := make([]AutoSegment, n)
		for i := 0; i < n; i++ {
			segs[i] = ops.Split(u, i, n)
		}
		back := ops.Rebuild(ops.Concat(segs))
		if back.Loss != loss || back.Count != int64(count) || !reflect.DeepEqual(back.Hist, u.Hist) {
			return false
		}
		for i := range vals {
			if back.Grad[i] != vals[i] && !(math.IsNaN(back.Grad[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
