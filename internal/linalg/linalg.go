// Package linalg provides the small dense/sparse vector kernel set
// MLlib's optimizers need: dot products, axpy updates and norms over
// dense weight vectors and sparse feature vectors.
package linalg

import (
	"fmt"
	"math"

	"sparker/internal/serde"
)

// SparseVector is a sparse feature vector: parallel index/value arrays
// over a fixed dimensionality. Indices must be strictly increasing.
type SparseVector struct {
	Dim     int
	Indices []int32
	Values  []float64
}

// NewSparse validates and builds a sparse vector.
func NewSparse(dim int, indices []int32, values []float64) (SparseVector, error) {
	if len(indices) != len(values) {
		return SparseVector{}, fmt.Errorf("linalg: %d indices but %d values", len(indices), len(values))
	}
	prev := int32(-1)
	for _, ix := range indices {
		if ix <= prev {
			return SparseVector{}, fmt.Errorf("linalg: indices not strictly increasing at %d", ix)
		}
		if int(ix) >= dim {
			return SparseVector{}, fmt.Errorf("linalg: index %d out of dim %d", ix, dim)
		}
		prev = ix
	}
	return SparseVector{Dim: dim, Indices: indices, Values: values}, nil
}

// NNZ returns the stored (structurally non-zero) entry count.
func (v SparseVector) NNZ() int { return len(v.Indices) }

// At returns element i (O(log nnz)).
func (v SparseVector) At(i int) float64 {
	lo, hi := 0, len(v.Indices)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case v.Indices[mid] == int32(i):
			return v.Values[mid]
		case v.Indices[mid] < int32(i):
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Dense expands to a dense slice.
func (v SparseVector) Dense() []float64 {
	out := make([]float64, v.Dim)
	for i, ix := range v.Indices {
		out[ix] = v.Values[i]
	}
	return out
}

// Dot computes wᵀx for dense w and sparse x.
func Dot(w []float64, x SparseVector) float64 {
	var s float64
	for i, ix := range x.Indices {
		s += w[ix] * x.Values[i]
	}
	return s
}

// Axpy performs y += alpha * x for sparse x, dense y.
func Axpy(alpha float64, x SparseVector, y []float64) {
	for i, ix := range x.Indices {
		y[ix] += alpha * x.Values[i]
	}
}

// The dense BLAS-1 kernels below are unrolled 4-wide with a scalar
// tail — the pattern the gradient inner loop hits millions of times per
// pass. Reslicing y to len(x) after the length check lets the compiler
// drop the per-element bounds checks inside the unrolled body.

// AxpyDense performs y += alpha * x for dense x and y.
func AxpyDense(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AxpyDense length mismatch")
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// AddAssign performs dst += src elementwise, in place — the reduction
// kernel of F64 aggregators and the collective layer's fused
// decode-reduce. Element adds are independent, so unrolling preserves
// bitwise results. src's element is each sum's first operand, so NaN +
// NaN keeps src's, as core.AddF64 does.
func AddAssign(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: AddAssign length mismatch %d vs %d", len(dst), len(src)))
	}
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = src[i] + dst[i]
		dst[i+1] = src[i+1] + dst[i+1]
		dst[i+2] = src[i+2] + dst[i+2]
		dst[i+3] = src[i+3] + dst[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i] + dst[i]
	}
}

// Scal scales x in place.
func Scal(alpha float64, x []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x[i] *= alpha
		x[i+1] *= alpha
		x[i+2] *= alpha
		x[i+3] *= alpha
	}
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of dense x. Four independent
// accumulators keep the multiply-add chains pipelined; the summation
// order therefore differs from a serial loop by normal float
// re-association.
func Norm2(x []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * x[i]
		s1 += x[i+1] * x[i+1]
		s2 += x[i+2] * x[i+2]
		s3 += x[i+3] * x[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(x); i++ {
		s += x[i] * x[i]
	}
	return math.Sqrt(s)
}

// DotDense computes xᵀy for dense vectors, with the same 4-accumulator
// unroll as Norm2.
func DotDense(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: DotDense length mismatch")
	}
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// --- serde integration --------------------------------------------------

// MarshalBinaryTo implements serde.Marshaler.
func (v SparseVector) MarshalBinaryTo(dst []byte) []byte {
	dst = serde.AppendInt(dst, v.Dim)
	dst = serde.AppendInt(dst, len(v.Indices))
	for _, ix := range v.Indices {
		dst = serde.AppendInt(dst, int(ix))
	}
	return serde.AppendFloat64s(dst, v.Values)
}

// UnmarshalBinaryFrom implements serde.Unmarshaler.
func (v *SparseVector) UnmarshalBinaryFrom(src []byte) (int, error) {
	if len(src) < 16 {
		return 0, fmt.Errorf("linalg: short SparseVector")
	}
	v.Dim = serde.IntAt(src, 0)
	n := serde.IntAt(src, 8)
	need := 16 + 16*n
	if n < 0 || len(src) < need {
		return 0, fmt.Errorf("linalg: truncated SparseVector (nnz=%d)", n)
	}
	v.Indices = make([]int32, n)
	v.Values = make([]float64, n)
	off := 16
	for i := 0; i < n; i++ {
		v.Indices[i] = int32(serde.IntAt(src, off))
		off += 8
	}
	for i := 0; i < n; i++ {
		v.Values[i] = serde.Float64At(src, off)
		off += 8
	}
	return off, nil
}

func init() {
	serde.RegisterSelf(SparseVector{}, func() serde.Unmarshaler { return new(SparseVector) })
}
