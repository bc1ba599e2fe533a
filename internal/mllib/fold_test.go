package mllib

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparker/internal/linalg"
	"sparker/internal/serde"
)

// TestTreeFoldMatchesSeqOp holds packedGrad.fold to the contract of
// core.AggFuncs.Fold. On random sparse partitions, for every fused
// gradient family, full and half minibatches: a partition storing at
// most half of dim's columns folds to exactly the bytes of seqOp from
// Zero encoded from its support, and one storing more declines, as does
// one whose dictionary qualifies but whose support the packed form's
// size rule refuses. Then end to end: tree training gives the same
// weights and losses, bit for bit, with the fold and without it; a split
// run builds no dictionary, and a tree run builds one per partition.
func TestTreeFoldMatchesSeqOp(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// part is a random labeled partition of rows rows over dim columns,
	// nnz entries a row drawn by col.
	part := func(idx, rows, dim, nnz int, col func() int32) *linalg.CSRMatrix {
		pts := make([]LabeledPoint, rows)
		for i := range pts {
			cols := make([]int32, nnz)
			for k := range cols {
				cols[k] = col()
			}
			slices.Sort(cols)
			cols = slices.Compact(cols)
			vals := make([]float64, len(cols))
			for k := range vals {
				vals[k] = rng.NormFloat64()
			}
			pts[i] = LabeledPoint{Label: float64(rng.Intn(2)), Features: linalg.SparseVector{Dim: dim, Indices: cols, Values: vals}}
		}
		m, err := PackPoints(idx, dim, pts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	kinds := []struct {
		name string
		k    linalg.CSRGradKind
	}{{"logistic", linalg.CSRLogistic}, {"leastsquares", linalg.CSRLeastSquares}, {"hinge", linalg.CSRHinge}}
	for _, sh := range []struct {
		name      string
		dim       int
		col       func(dim int) int32
		dict      bool // the block gets a column dictionary
		folds     bool
		rows, nnz int
	}{
		{"≤ ½ columns", 50_000, func(dim int) int32 { return rng.Int31n(int32(dim)) }, true, true, 400, 12},
		{"> ½ columns", 1_000, func(dim int) int32 { return rng.Int31n(int32(dim)) }, false, false, 400, 12},
		{"½ columns exactly", 1_024, func(dim int) int32 { return 2 * rng.Int31n(int32(dim/2)) }, true, false, 400, 16},
	} {
		for trial := 0; trial < 3; trial++ {
			m := part(trial, sh.rows, sh.dim, sh.nnz, func() int32 { return sh.col(sh.dim) })
			sup := gradSupport(m)
			cols := new(colDict)
			if local, _ := cols.get(m, sup); (local != nil) != sh.dict {
				t.Fatalf("%s: dictionary built %v, want %v", sh.name, local != nil, sh.dict)
			}
			w := make([]float64, sh.dim)
			for i := range w {
				w[i] = rng.NormFloat64() * 0.1
			}
			for _, kind := range kinds {
				for _, frac := range []float64{1, 0.5} {
					name := fmt.Sprintf("%s/%d/%s/frac=%v", sh.name, trial, kind.name, frac)
					pp := packedPart{M: m, Support: sup, Cols: cols}
					g := packedGrad{kind: kind.k, w: w, dim: sh.dim, frac: frac, seed: 11, iter: trial + 1}
					want, err := serde.EncodeF64(nil, g.seqOp(make([]float64, sh.dim+2), pp), sup)
					if err != nil {
						t.Fatal(err)
					}
					got, ok, err := g.fold([]packedPart{pp})
					switch {
					case err != nil:
						t.Fatalf("%s: %v", name, err)
					case ok != sh.folds:
						t.Fatalf("%s: folded %v, want %v", name, ok, sh.folds)
					case ok && !bytes.Equal(got, want):
						t.Fatalf("%s: the fold's %d-byte frame is not seqOp's %d bytes", name, len(got), len(want))
					}
				}
			}
		}
	}

	// End to end: six partitions on two executors, so stage 1 runs a
	// combine round before the driver's merge.
	const n, dim, parts, iters = 600, 4000, 6, 3
	ctx := testContext(t, 2, 2)
	train := sparseSet(ctx, n, dim, parts)
	decodedViews.mu.Lock()
	decodedViews.m = nil // no earlier test's entries push the cache over its cap
	decodedViews.mu.Unlock()
	prefix := fmt.Sprintf("csr/%d/%d/", train.ID(), dim)
	built := func() (views, dicts int) {
		decodedViews.mu.Lock()
		defer decodedViews.mu.Unlock()
		for k, v := range decodedViews.m {
			if strings.HasPrefix(k, prefix) {
				views++
				if v.cols.local != nil {
					dicts++
				}
			}
		}
		return views, dicts
	}
	gd := func(s Strategy) ([]float64, []float64) {
		w, losses, err := RunGradientDescent(train, LogisticGradient{}, SimpleUpdater{}, make([]float64, dim), GDConfig{
			Iterations: iters, MiniBatchFraction: 0.5, Seed: 3, Strategy: s, Packed: PackedOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w, losses
	}
	gd(StrategySplit)
	if views, dicts := built(); views != parts || dicts != 0 {
		t.Fatalf("after a split run: %d of %d cached blocks have a dictionary, want none of %d", dicts, views, parts)
	}
	foldW, foldLosses := gd(StrategyTree)
	if views, dicts := built(); views != parts || dicts != parts {
		t.Fatalf("after a tree run: %d of %d cached blocks have a dictionary, want all %d", dicts, views, parts)
	}
	// The same training loop with Fold nil: every stage-1 task folds
	// densely with seqOp and encodes from the support.
	plan := newPackedPlan(train, dim)
	defer plan.release()
	support := func(pp packedPart) []uint64 { return pp.Support }
	w := make([]float64, dim)
	var losses []float64
	for iter := 1; iter <= iters; iter++ {
		g := packedGrad{kind: linalg.CSRLogistic, w: w, dim: dim, frac: 0.5, seed: 3, iter: iter}
		agg, err := aggregateF64(context.Background(), plan.packed, dim+2, g.seqOp, support, nil, StrategyTree, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		count := agg[dim+1]
		next, reg := updateMean(SimpleUpdater{}, w, agg[:dim], count, 1, iter, 0)
		losses = append(losses, agg[dim]/count+reg)
		w = next
	}
	bitsEqualSlices(t, "tree weights with the fold and without", foldW, w)
	bitsEqualSlices(t, "tree losses with the fold and without", foldLosses, losses)
}
