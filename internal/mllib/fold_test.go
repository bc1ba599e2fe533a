package mllib

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"sparker/internal/collective"
	"sparker/internal/core"
	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/serde"
)

// TestTreeFoldMatchesSeqOp holds packedGrad.fold to the contract of
// core.F64Funcs.Fold. On random sparse partitions, for every fused
// gradient family, full and half minibatches: a partition storing at
// most half of dim's columns folds to exactly the values seqOp from Zero
// leaves at its support's set bits, appended after what dst held, and
// the frame written from them is the bytes of that accumulator encoded
// from its support — unless the packed form's size rule refuses the
// support, which the frame writer reports; one storing more declines.
// Then end to end: tree training gives the same weights and losses, bit
// for bit, with the fold and without it; a split run builds a dictionary
// for every qualifying block, as a tree run does.
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
		dict      bool // the block gets a column dictionary, and folds
		frames    bool // the support settles the frame's packed form
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
					dense := g.seqOp(make([]float64, sh.dim+2), pp)
					want, err := serde.EncodeF64(nil, dense, sup)
					if err != nil {
						t.Fatal(err)
					}
					head := []float64{-1, 2}
					got, ok, err := g.fold(slices.Clone(head), []packedPart{pp})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ok != sh.dict {
						t.Fatalf("%s: folded %v, want %v", name, ok, sh.dict)
					}
					if !ok {
						continue
					}
					n := sh.dim + 2
					bitsEqualSlices(t, name+": dst's head", head, got[:len(head)])
					got = got[len(head):]
					var atSup []float64
					for j := 0; j < n; j++ {
						if sup[j>>6]&(1<<uint(j&63)) != 0 {
							atSup = append(atSup, dense[j])
						}
					}
					bitsEqualSlices(t, name+": compact values", atSup, got)
					frame, settles := serde.EncodeF64Support(nil, n, sup, got)
					switch {
					case settles != sh.frames:
						t.Fatalf("%s: frame written %v, want %v", name, settles, sh.frames)
					case settles && !bytes.Equal(frame, want):
						t.Fatalf("%s: the fold's %d-byte frame is not seqOp's %d bytes", name, len(frame), len(want))
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
	if views, dicts := built(); views != parts || dicts != parts {
		t.Fatalf("after a split run: %d of %d cached blocks have a dictionary, want all %d", dicts, views, parts)
	}
	foldW, foldLosses := gd(StrategyTree)
	if views, dicts := built(); views != parts || dicts != parts {
		t.Fatalf("after a tree run: %d of %d cached blocks have a dictionary, want all %d", dicts, views, parts)
	}
	// The same training loop with Fold nil: every stage-1 task folds
	// densely with seqOp and encodes from the support.
	plan := newPackedPlan(train, dim)
	defer plan.release()
	w := make([]float64, dim)
	var losses []float64
	for iter := 1; iter <= iters; iter++ {
		g := packedGrad{kind: linalg.CSRLogistic, w: w, dim: dim, frac: 0.5, seed: 3, iter: iter}
		fns := g.funcs(nil)
		fns.Fold = nil
		agg, err := core.AggregateF64(context.Background(), plan.packed, fns, strategyOpts(t, StrategyTree, 2, 0)...)
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

// TestSplitCompactMatchesDense holds the IMM-based strategies' compact
// path to the dense one: {split, allreduce, IMM} × {logistic,
// least-squares, hinge} × {full, minibatch ½} × {one partition per
// executor, two} × {≤ ½ of dim's columns, > ½}, each trained with the
// fold and with Fold nil, over four ring channels. Weights, losses and
// the ring's wire bytes must be identical. With one partition per
// executor the IMM stage keeps compact aggregators and the ring reduces
// them through the compact source; with two it expands them into Zero.
// A partition storing more than half of dim's columns — every
// partition of the tall and tiny benchmark shapes — never folds, so its
// task keeps a dense aggregator.
func TestSplitCompactMatchesDense(t *testing.T) {
	const n, iters, execs, par = 600, 3, 3, 4
	kinds := []struct {
		name string
		k    linalg.CSRGradKind
	}{{"logistic", linalg.CSRLogistic}, {"leastsquares", linalg.CSRLeastSquares}, {"hinge", linalg.CSRHinge}}
	for _, sh := range []struct {
		name    string
		dim     int
		compact bool
	}{{"≤ ½ columns", 4_000, true}, {"> ½ columns", 120, false}} {
		for _, perExec := range []int{1, 2} {
			ctx := testContext(t, execs, 1)
			parts := execs * perExec
			plan := newPackedPlan(sparseSet(ctx, n, sh.dim, parts), sh.dim)
			// Chunks of 256 elements: the 4 000-column aggregator rides
			// all four channels.
			cctx := collective.WithChunkBytes(context.Background(), 2<<10)
			wire := func() int64 { return ctx.MergedMetrics().Histogram(metrics.HistRingStepBytes).Sum() }
			for _, s := range []Strategy{StrategySplit, StrategyAllReduce, StrategyTreeIMM} {
				for _, kind := range kinds {
					for _, frac := range []float64{1, 0.5} {
						name := fmt.Sprintf("%s/%d per executor/%v/%s/frac=%v", sh.name, perExec, s, kind.name, frac)
						train := func(withFold bool) (w, losses []float64, bytes, folds int64) {
							var accepted atomic.Int64
							w = make([]float64, sh.dim)
							before := wire()
							for iter := 1; iter <= iters; iter++ {
								g := packedGrad{kind: kind.k, w: w, dim: sh.dim, frac: frac, seed: 5, iter: iter}
								fns := g.funcs(nil)
								fns.Fold = nil
								if withFold {
									fns.Fold = func(dst []float64, elems []packedPart) ([]float64, bool, error) {
										vals, ok, err := g.fold(dst, elems)
										if ok {
											accepted.Add(1)
										}
										return vals, ok, err
									}
								}
								agg, err := core.AggregateF64(cctx, plan.packed, fns, strategyOpts(t, s, 2, par)...)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								count := agg[sh.dim+1]
								next, reg := updateMean(SimpleUpdater{}, w, agg[:sh.dim], count, 1, iter, 0)
								losses = append(losses, agg[sh.dim]/count+reg)
								w = next
							}
							return w, losses, wire() - before, accepted.Load()
						}
						w, losses, bytes, folds := train(true)
						denseW, denseLosses, denseBytes, _ := train(false)
						bitsEqualSlices(t, name+": weights", w, denseW)
						bitsEqualSlices(t, name+": losses", losses, denseLosses)
						if bytes != denseBytes || (bytes == 0) != (s == StrategyTreeIMM) {
							t.Fatalf("%s: %d wire bytes with the fold, %d without", name, bytes, denseBytes)
						}
						if want := int64(0); sh.compact {
							if want = int64(iters * parts); folds != want {
								t.Fatalf("%s: %d compact folds, want one per task (%d)", name, folds, want)
							}
						} else if folds != 0 {
							t.Fatalf("%s: %d compact folds, want none: every partition stores more than half of the columns", name, folds)
						}
					}
				}
			}
			plan.release()
		}
	}
}
