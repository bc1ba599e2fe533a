package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"sparker/internal/collective"
	"sparker/internal/serde"
)

// supportOver is the bitmap of vals' non-zero words.
func supportOver(vals []float64) []uint64 {
	sup := make([]uint64, serde.PackedWords(len(vals)))
	for i, x := range vals {
		if math.Float64bits(x) != 0 {
			sup[i>>6] |= 1 << uint(i&63)
		}
	}
	return sup
}

// TestSplitSupportEquivalence: with AggFuncs.Support the split and
// allreduce strategies return the tree's vector bit for bit, encode
// from the support (ChunkSize is handed candidates), and never write an
// element's bitmap — with every executor holding partitions, with one
// holding none (its Zero aggregator's support is empty), and with some
// elements whose support is unknown.
func TestSplitSupportEquivalence(t *testing.T) {
	const execs, samples, dim = 3, 240, 6007
	ctx := testContext(t, execs, 2)
	elems := make([][]uint64, samples)
	for v := range elems {
		elems[v] = supportOver(sparseSeqOp(make([]float64, dim), int64(v)))
	}
	pristine := make([][]uint64, samples)
	for v := range elems {
		pristine[v] = slices.Clone(elems[v])
	}
	var fromSupport atomic.Int64
	ops := collective.F64Ops()
	hook := *ops.Packed
	size := hook.ChunkSize
	hook.ChunkSize = func(v []float64, off, n int, cand []uint64, bit int) int {
		if cand != nil {
			fromSupport.Add(1)
		}
		return size(v, off, n, cand, bit)
	}
	ops.Packed = &hook

	for _, parts := range []int{2, execs * 2} {
		r := vectorRDD(ctx, samples, parts)
		want := make([]float64, dim)
		for i := int64(0); i < samples; i++ {
			want = sparseSeqOp(want, i)
		}
		for _, unknown := range []bool{false, true} {
			support := func(v int64) []uint64 {
				if unknown && v%5 == 0 {
					return nil
				}
				return elems[v]
			}
			for _, strategy := range []Strategy{StrategySplit, StrategyAllReduce} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("parts=%d/unknown=%v/%v/par=%d", parts, unknown, strategy, par)
					before, steps := fromSupport.Load(), ringSteps(ctx)
					got, err := Aggregate(fillChannels(context.Background(), dim, par), r, AggFuncs[int64, []float64, []float64]{
						Zero: vecZero(dim), SeqOp: sparseSeqOp, MergeOp: AddF64,
						SplitOp: SplitSlice[float64], ReduceOp: AddF64, ConcatOp: ConcatSlices[float64],
						Ops: &ops, Support: support,
					}, WithStrategy(strategy), WithParallelism(par))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					bitsEqual(t, name, got, want)
					if n, want := ringSteps(ctx)-steps, int64(execs*par*(execs-1)*phases(strategy)); n != want {
						t.Errorf("%s: %d ring steps, want %d (%d channels)", name, n, want, par)
					}
					if used := fromSupport.Load() > before; used == (unknown && parts > execs) {
						// An executor whose fold met an unknown support scans; with
						// two partitions per executor every one of them does.
						t.Errorf("%s: encoded from a support: %v", name, used)
					}
				}
			}
		}
	}
	for v := range elems {
		if !slices.Equal(elems[v], pristine[v]) {
			t.Fatalf("the support of element %d was written", v)
		}
	}
}

// TestTreeSupportEquivalence: the tree's stage-1 blocks and the IMM
// gather's frames are encoded from AggFuncs.Support, and the driver adds
// them into its accumulator from the wire: with true supports, some of
// them unknown, both return the sequential sum bit for bit. A support
// that claims nothing can be non-zero — a broken promise — gives zero
// frames, which is how the test sees that the encoder read it.
func TestTreeSupportEquivalence(t *testing.T) {
	const execs, samples, dim = 3, 240, 6007
	ctx := testContext(t, execs, 2)
	elems := make([][]uint64, samples)
	for v := range elems {
		elems[v] = supportOver(sparseSeqOp(make([]float64, dim), int64(v)))
	}
	clear := make([]uint64, serde.PackedWords(dim))
	want := make([]float64, dim)
	for i := int64(0); i < samples; i++ {
		want = sparseSeqOp(want, i)
	}
	ops := collective.F64Ops()
	for _, parts := range []int{2, execs * 2, 16} {
		r := vectorRDD(ctx, samples, parts)
		for _, sup := range []string{"true", "unknown", "clear"} {
			support := func(v int64) []uint64 {
				switch {
				case sup == "clear":
					return clear
				case sup == "unknown" && v%5 == 0:
					return nil
				}
				return elems[v]
			}
			for _, strategy := range []Strategy{StrategyTree, StrategyIMM} {
				name := fmt.Sprintf("parts=%d/%s/%v", parts, sup, strategy)
				got, err := Aggregate(context.Background(), r, AggFuncs[int64, []float64, []float64]{
					Zero: vecZero(dim), SeqOp: sparseSeqOp, MergeOp: AddF64,
					SplitOp: SplitSlice[float64], ReduceOp: AddF64, ConcatOp: ConcatSlices[float64],
					Ops: &ops, Support: support,
				}, WithStrategy(strategy))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if sup == "clear" {
					bitsEqual(t, name, got, make([]float64, dim))
				} else {
					bitsEqual(t, name, got, want)
				}
			}
		}
	}
}

// TestOwnedFrameSupportMatchesScan: framing owned segments from a
// support over the whole segment set gives the counted frame's bytes;
// only the draw may be larger, by the candidates that hold +0.0.
func TestOwnedFrameSupportMatchesScan(t *testing.T) {
	ops := collective.F64Ops()
	sparse := make([]float64, 200)
	sparse[3], sparse[64], sparse[199] = math.Copysign(0, -1), math.NaN(), math.SmallestNonzeroFloat64
	dense := make([]float64, 200)
	for i := range dense {
		dense[i] = float64(i) + 0.25
	}
	segs := [][]float64{sparse, dense, make([]float64, 130), {}, make([]float64, 77)}
	segs[4][70] = 2
	owned := map[int][]float64{0: segs[0], 1: segs[1], 2: segs[2], 4: segs[4]}
	sup := supportOver(ConcatSlices(segs))
	sup[(200+200+5)>>6] |= 1 << ((200 + 200 + 5) & 63) // a candidate holding +0.0
	var counted, supported int
	want := encodeOwned(owned, ops, nil, nil, func(n int) []byte { counted = n; return make([]byte, 0, n) })
	got := encodeOwned(owned, ops, sup, firstOf(segs), func(n int) []byte { supported = n; return make([]byte, 0, n) })
	if !bytes.Equal(got, want) {
		t.Fatal("the frame encoded from the support differs from the counted one")
	}
	if supported != counted+8 {
		t.Errorf("drew %d bytes from the support, %d counted: want the one zero candidate's 8 more", supported, counted)
	}
}

// firstOf is encodeOwned's first over segs: segment i's first element
// in their concatenation.
func firstOf(segs [][]float64) func(i int) int {
	return func(i int) int {
		n := 0
		for _, s := range segs[:i] {
			n += len(s)
		}
		return n
	}
}
