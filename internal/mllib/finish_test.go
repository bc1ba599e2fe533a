package mllib

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"sparker/internal/linalg"
	"sparker/internal/rdd"
	"sparker/internal/serde"
)

// updateMean is the reference update: the dense path the optimizer ran
// before it read the aggregate from its frames. A mean updater's
// decay·w − step·(gradSum/count) is written over gradSum, an updater
// without the fused form gets the gradient divided in place for Update.
func updateMean(up Updater, w, gradSum []float64, count, stepSize float64, iter int, regParam float64) ([]float64, float64) {
	step := stepSize / math.Sqrt(float64(iter))
	decay := 1.0
	switch up.(type) {
	case SimpleUpdater:
	case SquaredL2Updater:
		decay = 1 - step*regParam
	default:
		for i := range gradSum {
			gradSum[i] /= count
		}
		return up.Update(w, gradSum, stepSize, iter, regParam)
	}
	out := gradSum[:len(w):len(w)]
	for i, wi := range w {
		out[i] = float64(wi*decay) + -step*(out[i]/count)
	}
	if _, ok := up.(SquaredL2Updater); ok {
		norm := linalg.Norm2(out)
		return out, 0.5 * regParam * norm * norm
	}
	return out, 0
}

// negatingUpdater has no fused form: the optimizer divides for it.
type negatingUpdater struct{}

func (negatingUpdater) Update(w, g []float64, _ float64, _ int, _ float64) ([]float64, float64) {
	out := make([]float64, len(w))
	for i := range w {
		out[i] = w[i] - g[i]
	}
	return out, 0
}

// finishStep runs one mean updater's step over agg the way
// RunGradientDescent's Finish does.
func finishStep(t *testing.T, up Updater, w []float64, agg *serde.F64Frames, stepSize float64, iter int, regParam float64) (newW []float64, loss, count float64) {
	t.Helper()
	mu, ok := up.(meanUpdater)
	if !ok {
		t.Fatalf("%T has no fused form", up)
	}
	m := &meanStep{up: mu, regParam: regParam, w: w}
	m.decay, m.step = mu.meanStep(stepSize, iter, regParam)
	out, err := m.finish(agg)
	if err != nil {
		t.Fatal(err)
	}
	return out, m.loss/m.count + m.reg, m.count
}

// TestUpdateMeanBitIdentical: the tile kernel, reading the gradient sum
// from its frame over several tiles (the last one partial), must not
// move a bit against the separate divide-then-Update passes, and must
// leave the weights untouched. An updater without the fused form is not
// offered one.
func TestUpdateMeanBitIdentical(t *testing.T) {
	const dim = 5003
	w, agg := make([]float64, dim), make([]float64, dim+2)
	for i := range w {
		w[i] = math.Sin(float64(i)) * 3
		agg[i] = math.Cos(float64(i)*0.7) * 1e3 / 7
	}
	for _, up := range []Updater{SimpleUpdater{}, SquaredL2Updater{}} {
		for _, count := range []float64{1, 3, 20000} {
			agg[dim], agg[dim+1] = 42.5, count
			mean := make([]float64, dim)
			for i := range mean {
				mean[i] = agg[i] / count
			}
			wantW, wantReg := up.Update(w, mean, 0.3, 7, 0.01)
			wBefore := append([]float64(nil), w...)
			frame, err := serde.EncodeF64(nil, agg, nil)
			if err != nil {
				t.Fatal(err)
			}
			frames, err := serde.SumF64([][]byte{frame})
			if err != nil {
				t.Fatal(err)
			}
			gotW, gotLoss, _ := finishStep(t, up, w, frames, 0.3, 7, 0.01)
			frames.Release()
			bitsEqualSlices(t, fmt.Sprintf("%T count=%v", up, count), gotW, wantW)
			if want := 42.5/count + wantReg; math.Float64bits(gotLoss) != math.Float64bits(want) {
				t.Fatalf("%T: loss %v != %v", up, gotLoss, want)
			}
			bitsEqualSlices(t, "weights", w, wBefore)
		}
	}
	if _, ok := Updater(negatingUpdater{}).(meanUpdater); ok {
		t.Fatal("a custom updater was offered the fused form")
	}
}

// TestFinishBitIdentical: training whose update runs as the
// aggregation's Finish — split, IMM, tree over 4, 9 and 16 partitions
// (no combine round, and one of 3 or 4 tasks), allreduce; Simple and L2;
// the full batch and ½ — gives the weights and loss history, bit for
// bit, of the reference loop that assembles the aggregate and runs the
// dense update. So do the per-point plane and an updater without the
// fused form, which divides for Update.
func TestFinishBitIdentical(t *testing.T) {
	const n, dim, iters, reg = 480, 3000, 3, 0.01
	ctx := testContext(t, 3, 1)
	type run struct {
		s      Strategy
		parts  int
		packed PackedMode
		up     Updater
	}
	var runs []run
	for _, c := range []struct {
		s     Strategy
		parts []int
	}{{StrategySplit, []int{3, 6}}, {StrategyTreeIMM, []int{6}}, {StrategyTree, []int{4, 9, 16}}, {StrategyAllReduce, []int{6}}} {
		for _, parts := range c.parts {
			for _, up := range []Updater{SimpleUpdater{}, SquaredL2Updater{}} {
				runs = append(runs, run{c.s, parts, PackedOn, up})
			}
		}
	}
	runs = append(runs, run{StrategySplit, 3, PackedOff, SquaredL2Updater{}}, run{StrategyTree, 4, PackedOn, negatingUpdater{}})
	sets := map[int]*rdd.RDD[LabeledPoint]{}
	for _, r := range runs {
		train := sets[r.parts]
		if train == nil {
			train = sparseSet(ctx, n, dim, r.parts)
			sets[r.parts] = train
		}
		plan := newPackedPlan(train, dim)
		for _, frac := range []float64{1, 0.5} {
			name := fmt.Sprintf("%v/parts=%d/packed=%v/%T/frac=%v", r.s, r.parts, r.packed, r.up, frac)
			gotW, gotLosses, err := RunGradientDescent(train, LogisticGradient{}, r.up, make([]float64, dim), GDConfig{
				Iterations: iters, MiniBatchFraction: frac, Seed: 7, Strategy: r.s, RegParam: reg, Packed: r.packed,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			w := make([]float64, dim)
			var losses []float64
			for iter := 1; iter <= iters; iter++ {
				g := packedGrad{kind: linalg.CSRLogistic, w: w, dim: dim, frac: frac, seed: 7, iter: iter}
				agg, err := g.aggregate(context.Background(), plan, nil, r.s, 2, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				count := agg[dim+1]
				next, regVal := updateMean(r.up, w, agg[:dim], count, 1, iter, reg)
				losses = append(losses, agg[dim]/count+regVal)
				w = next
			}
			bitsEqualSlices(t, name+": weights", gotW, w)
			bitsEqualSlices(t, name+": losses", gotLosses, losses)
		}
		plan.release()
	}
}

// packF64 is v's packed payload: the bitmap of its non-zero words and
// those words.
func packF64(v []float64) []byte {
	out := make([]byte, 8*serde.PackedWords(len(v)))
	for i, x := range v {
		if b := math.Float64bits(x); b != 0 {
			out[8*(i/64)+i%64/8] |= 1 << uint(i%8)
			out = binary.LittleEndian.AppendUint64(out, b)
		}
	}
	return out
}

// TestFinishCraftedFrames: frames holding −0.0, NaN, a subnormal and an
// all-zero segment — as owned segments (raw and packed ranges, each
// word as it is) and as tag 7 addends (summed from +0.0) — finish to the
// bits of the reference: decode each frame, then the dense update. A
// count of 0 writes nothing and returns no weights.
func TestFinishCraftedFrames(t *testing.T) {
	const dim = 300
	negZero, nan, tiny := math.Copysign(0, -1), math.NaN(), math.SmallestNonzeroFloat64
	agg := make([]float64, dim+2)
	for i := 0; i < 100; i++ {
		agg[i] = float64(i%7) - 3
	}
	agg[5], agg[17], agg[99] = negZero, nan, tiny
	// [100, 230) is all zero; [230, 302) is sparse and holds the tail.
	agg[231], agg[250], agg[299] = negZero, 4.5, nan
	agg[dim], agg[dim+1] = 17.25, 9
	w := make([]float64, dim)
	for i := range w {
		w[i] = float64(i%5) - 2
	}
	w[3] = negZero
	for _, up := range []Updater{SimpleUpdater{}, SquaredL2Updater{}} {
		// Owned segments: each word as it is.
		owned := serde.ConcatF64()
		if err := owned.AppendRaw(serde.AppendFloat64s(nil, agg[:100])); err != nil {
			t.Fatal(err)
		}
		if err := owned.AppendPacked(130, packF64(agg[100:230])); err != nil {
			t.Fatal(err)
		}
		if err := owned.AppendPacked(72, packF64(agg[230:])); err != nil {
			t.Fatal(err)
		}
		ref := append([]float64(nil), agg...)
		wantW, wantReg := updateMean(up, w, ref[:dim], ref[dim+1], 0.5, 3, 0.1)
		gotW, gotLoss, _ := finishStep(t, up, w, owned, 0.5, 3, 0.1)
		owned.Release()
		bitsEqualSlices(t, fmt.Sprintf("%T owned segments", up), gotW, wantW)
		if want := agg[dim]/agg[dim+1] + wantReg; math.Float64bits(gotLoss) != math.Float64bits(want) {
			t.Fatalf("%T owned segments: loss %v != %v", up, gotLoss, want)
		}

		// Addends: the crafted vector, a packed all-zero one and a
		// second sparse one, summed in order from +0.0.
		second := make([]float64, dim+2)
		second[5], second[17], second[260] = negZero, 1, negZero
		var frames [][]byte
		sum := make([]float64, dim+2)
		for _, v := range [][]float64{agg, make([]float64, dim+2), second} {
			frame, err := serde.EncodeF64(nil, v, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := serde.DecodeReduceF64(sum, frame); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
		}
		wantW, wantReg = updateMean(up, w, sum[:dim], sum[dim+1], 0.5, 3, 0.1)
		addends, err := serde.SumF64(frames)
		if err != nil {
			t.Fatal(err)
		}
		gotW, gotLoss, _ = finishStep(t, up, w, addends, 0.5, 3, 0.1)
		addends.Release()
		bitsEqualSlices(t, fmt.Sprintf("%T addends", up), gotW, wantW)
		if want := sum[dim]/sum[dim+1] + wantReg; math.Float64bits(gotLoss) != math.Float64bits(want) {
			t.Fatalf("%T addends: loss %v != %v", up, gotLoss, want)
		}
	}

	empty := append([]float64(nil), agg...)
	empty[dim+1] = 0
	frames := serde.ConcatF64()
	defer frames.Release()
	if err := frames.AppendRaw(serde.AppendFloat64s(nil, empty)); err != nil {
		t.Fatal(err)
	}
	if gotW, _, count := finishStep(t, SimpleUpdater{}, w, frames, 0.5, 3, 0); gotW != nil || count != 0 {
		t.Fatalf("count 0: weights %v, count %v; want none", gotW, count)
	}
}

// TestGDEmptyMinibatch: an iteration that samples nothing reports a NaN
// loss and leaves the weights as they were, on every strategy, and the
// result does not alias the caller's vector.
func TestGDEmptyMinibatch(t *testing.T) {
	const dim = 400
	ctx := testContext(t, 3, 1)
	train := sparseSet(ctx, 60, dim, 6)
	initial := make([]float64, dim)
	for i := range initial {
		initial[i] = float64(i%9) - 4
	}
	for _, s := range []Strategy{StrategySplit, StrategyTreeIMM, StrategyTree, StrategyAllReduce} {
		w, losses, err := RunGradientDescent(train, LogisticGradient{}, SimpleUpdater{}, initial, GDConfig{
			Iterations: 2, MiniBatchFraction: 1e-12, Seed: 1, Strategy: s,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(losses) != 2 || !math.IsNaN(losses[0]) || !math.IsNaN(losses[1]) {
			t.Fatalf("%v: losses %v, want two NaN", s, losses)
		}
		bitsEqualSlices(t, fmt.Sprintf("%v weights", s), w, initial)
		if &w[0] == &initial[0] {
			t.Fatalf("%v: the result aliases the initial weights", s)
		}
	}
}
