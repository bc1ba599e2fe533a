package mllib

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparker/internal/linalg"
)

// supportShapes are partitions to hold the support promise against: the
// wide regime's hypersparse shapes (far fewer entries than columns),
// empty rows, and a hinge row whose multiplier is exactly zero (label 1,
// margin exactly 1).
func supportShapes(rng *rand.Rand) []struct {
	name string
	dim  int
	pts  []LabeledPoint
} {
	const dim = 100_000
	row := func(cols ...int32) LabeledPoint {
		slices.Sort(cols)
		cols = slices.Compact(cols)
		vals := make([]float64, len(cols))
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		return LabeledPoint{Label: float64(rng.Intn(2)), Features: linalg.SparseVector{Dim: dim, Indices: cols, Values: vals}}
	}
	rows := func(n int, cols func() []int32) []LabeledPoint {
		out := make([]LabeledPoint, n)
		for i := range out {
			out[i] = row(cols()...)
		}
		return out
	}
	uniform := func(k int, lo, hi int32) func() []int32 {
		return func() []int32 {
			cols := make([]int32, k)
			for i := range cols {
				cols[i] = lo + rng.Int31n(hi-lo)
			}
			return cols
		}
	}
	zipf := rand.NewZipf(rng, 1.5, 1, dim/100-1)
	zeroMult := row(417)
	zeroMult.Label, zeroMult.Features.Values[0] = 1, 1 // w[417] = 1: margin 1
	return []struct {
		name string
		dim  int
		pts  []LabeledPoint
	}{
		{"3 per row", dim, rows(200, uniform(3, 0, dim))},
		{"last 1% of cols", dim, rows(200, uniform(3, dim-dim/100, dim))},
		{"one column", dim, rows(200, uniform(1, 417, 418))},
		{"first and last", dim, rows(200, func() []int32 { return [][]int32{{}, {0}, {dim - 1}, {0, dim - 1}}[rng.Intn(4)] })},
		{"power-law head", dim, rows(300, func() []int32 {
			return []int32{int32(zipf.Uint64()), int32(zipf.Uint64()), int32(zipf.Uint64())}
		})},
		{"zero-multiplier hinge row", dim, append(rows(50, uniform(2, 400, 500)), zeroMult)},
	}
}

// TestGradSupportCoversWrites holds the promise mllib makes to core at its
// source: every aggregator element packedGrad.seqOp changes — from Zero,
// and from an accumulator already holding values — is set in the
// partition's gradSupport, for every fused gradient family, full and
// sampled passes, on the hypersparse shapes and a zero-multiplier hinge
// row. Then, end to end: a split run ORs what its ring reduces into
// core's copy of the support, never into the cached one.
func TestGradSupportCoversWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range supportShapes(rng) {
		m, err := PackPoints(0, sh.dim, sh.pts)
		if err != nil {
			t.Fatal(err)
		}
		sup := gradSupport(m)
		if len(sup) != (sh.dim+2+63)/64 {
			t.Fatalf("%s: %d support words for a %d-element aggregator", sh.name, len(sup), sh.dim+2)
		}
		w := make([]float64, sh.dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		w[417] = 1
		for _, kind := range []struct {
			name string
			k    linalg.CSRGradKind
		}{{"logistic", linalg.CSRLogistic}, {"leastsquares", linalg.CSRLeastSquares}, {"hinge", linalg.CSRHinge}} {
			for _, frac := range []float64{1, 0.3} {
				for _, start := range []string{"zero", "filled"} {
					name := fmt.Sprintf("%s/%s/frac=%v/%s", sh.name, kind.name, frac, start)
					acc := make([]float64, sh.dim+2)
					if start == "filled" {
						for i := range acc {
							acc[i] = rng.NormFloat64()
						}
					}
					before := slices.Clone(acc)
					acc = packedGrad{kind: kind.k, w: w, dim: sh.dim, frac: frac, seed: 7, iter: 3}.seqOp(acc, packedPart{M: m, Support: sup})
					changed := 0
					for i := range acc {
						if math.Float64bits(acc[i]) == math.Float64bits(before[i]) {
							continue
						}
						changed++
						if sup[i>>6]>>uint(i&63)&1 == 0 {
							t.Fatalf("%s: element %d changed (%v → %v) outside the support", name, i, before[i], acc[i])
						}
					}
					if changed == 0 && frac == 1 {
						t.Fatalf("%s: the pass changed nothing, so the test checked nothing", name)
					}
				}
			}
		}
	}

	const n, dim = 300, 4000
	for _, parts := range []int{3, 6} { // one and two partitions per executor
		ctx := testContext(t, 3, 2)
		train := sparseSet(ctx, n, dim, parts)
		run := func(mode PackedMode) []float64 {
			w, _, err := RunGradientDescent(train, LogisticGradient{}, SimpleUpdater{}, make([]float64, dim), GDConfig{
				Iterations: 2, StepSize: 1, Strategy: StrategySplit, Packed: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		// An empty cache, so that no earlier test's entries push it over
		// its cap (which drops every entry) during this one.
		decodedViews.mu.Lock()
		decodedViews.m = nil
		decodedViews.mu.Unlock()
		perPoint := run(PackedOff)
		prefix := fmt.Sprintf("csr/%d/%d/", train.ID(), dim)
		for _, pass := range []string{"first", "second"} { // computes the supports, then reads them from the cache
			bitsEqualSlices(t, fmt.Sprintf("parts=%d %s split run", parts, pass), run(PackedOn), perPoint)
			cached := 0
			decodedViews.mu.Lock()
			for k, v := range decodedViews.m {
				if !strings.HasPrefix(k, prefix) {
					continue
				}
				cached++
				if !slices.Equal(v.sup, gradSupport(v.mat)) {
					t.Errorf("parts=%d: after the %s split run the cached support of %s is not its block's", parts, pass, k)
				}
			}
			decodedViews.mu.Unlock()
			if cached != parts {
				t.Fatalf("parts=%d: %d supports cached after the %s run", parts, cached, pass)
			}
		}
	}
}
