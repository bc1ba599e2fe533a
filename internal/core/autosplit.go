package core

// Automatic split aggregation — the paper's future-work idea realized:
// "compiler techniques may be used to analyze the aggregator to
// generate split aggregation code without user-defined code" (§6).
// Instead of a compiler pass, Derive inspects the aggregator type with
// reflection and synthesizes mergeOp/splitOp/reduceOp/concatOp for any
// aggregator that is a []float64, a []int64, or a struct whose exported
// fields are those slice types or float64/int64 scalars — which covers
// every MLlib aggregator in the paper (Figure 7's Agg is exactly a
// struct of two float64 arrays).

import (
	"fmt"
	"reflect"

	"sparker/internal/serde"
)

// AutoSegment is the aggregator-segment type V produced by derived
// splitOps: the i-th contiguous slice of every slice field, plus (in
// segment 0 only) the scalar fields.
type AutoSegment struct {
	F64     [][]float64
	I64     [][]int64
	ScalarF []float64
	ScalarI []int64
}

// MarshalBinaryTo implements serde.Marshaler.
func (s AutoSegment) MarshalBinaryTo(dst []byte) []byte {
	dst = serde.AppendInt(dst, len(s.F64))
	for _, v := range s.F64 {
		dst = serde.AppendInt(dst, len(v))
		for _, f := range v {
			dst = serde.AppendFloat64(dst, f)
		}
	}
	dst = serde.AppendInt(dst, len(s.I64))
	for _, v := range s.I64 {
		dst = serde.AppendInt(dst, len(v))
		for _, x := range v {
			dst = serde.AppendInt(dst, int(x))
		}
	}
	dst = serde.AppendInt(dst, len(s.ScalarF))
	for _, f := range s.ScalarF {
		dst = serde.AppendFloat64(dst, f)
	}
	dst = serde.AppendInt(dst, len(s.ScalarI))
	for _, x := range s.ScalarI {
		dst = serde.AppendInt(dst, int(x))
	}
	return dst
}

// UnmarshalBinaryFrom implements serde.Unmarshaler.
func (s *AutoSegment) UnmarshalBinaryFrom(src []byte) (int, error) {
	off := 0
	readInt := func() int {
		v := serde.IntAt(src, off)
		off += 8
		return v
	}
	nf := readInt()
	s.F64 = make([][]float64, nf)
	for i := range s.F64 {
		n := readInt()
		s.F64[i] = make([]float64, n)
		for j := range s.F64[i] {
			s.F64[i][j] = serde.Float64At(src, off)
			off += 8
		}
	}
	ni := readInt()
	s.I64 = make([][]int64, ni)
	for i := range s.I64 {
		n := readInt()
		s.I64[i] = make([]int64, n)
		for j := range s.I64[i] {
			s.I64[i][j] = int64(serde.IntAt(src, off))
			off += 8
		}
	}
	s.ScalarF = make([]float64, readInt())
	for i := range s.ScalarF {
		s.ScalarF[i] = serde.Float64At(src, off)
		off += 8
	}
	s.ScalarI = make([]int64, readInt())
	for i := range s.ScalarI {
		s.ScalarI[i] = int64(serde.IntAt(src, off))
		off += 8
	}
	return off, nil
}

func init() {
	serde.RegisterSelf(AutoSegment{}, func() serde.Unmarshaler { return new(AutoSegment) })
}

// fieldKind classifies supported aggregator fields.
type fieldKind int

const (
	kindF64Slice fieldKind = iota
	kindI64Slice
	kindF64Scalar
	kindI64Scalar
)

// plan is the analyzed structure of an aggregator type.
type plan struct {
	// wholeSlice is set when U itself is []float64 or []int64.
	wholeSlice bool
	wholeKind  fieldKind
	fields     []planField
}

type planField struct {
	index int // struct field index
	kind  fieldKind
	name  string
}

// analyze validates U's shape and produces the derivation plan.
func analyze(t reflect.Type) (plan, error) {
	var p plan
	switch {
	case t == reflect.TypeOf([]float64(nil)):
		p.wholeSlice, p.wholeKind = true, kindF64Slice
		return p, nil
	case t == reflect.TypeOf([]int64(nil)):
		p.wholeSlice, p.wholeKind = true, kindI64Slice
		return p, nil
	case t.Kind() == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return p, fmt.Errorf("core: Derive: field %s.%s is unexported; derived aggregators need exported fields", t.Name(), f.Name)
			}
			pf := planField{index: i, name: f.Name}
			switch f.Type {
			case reflect.TypeOf([]float64(nil)):
				pf.kind = kindF64Slice
			case reflect.TypeOf([]int64(nil)):
				pf.kind = kindI64Slice
			case reflect.TypeOf(float64(0)):
				pf.kind = kindF64Scalar
			case reflect.TypeOf(int64(0)):
				pf.kind = kindI64Scalar
			default:
				return p, fmt.Errorf("core: Derive: field %s.%s has unsupported type %v (want []float64, []int64, float64 or int64)", t.Name(), f.Name, f.Type)
			}
			p.fields = append(p.fields, pf)
		}
		if len(p.fields) == 0 {
			return p, fmt.Errorf("core: Derive: %v has no fields to aggregate", t)
		}
		return p, nil
	default:
		return p, fmt.Errorf("core: Derive: unsupported aggregator type %v (want a slice or a struct of slices/scalars)", t)
	}
}

// DerivedOps is the synthesized callback set for split aggregation.
// Concat produces the reassembled segment container (the V the
// interface returns, per Figure 6); Rebuild converts it back into the
// aggregator type U.
type DerivedOps[U any] struct {
	Merge   func(U, U) U
	Split   func(U, int, int) AutoSegment
	Reduce  func(AutoSegment, AutoSegment) AutoSegment
	Concat  func([]AutoSegment) AutoSegment
	Rebuild func(AutoSegment) U
}

// Derive analyzes U (via a value from zero) and synthesizes the split
// aggregation callbacks.
func Derive[U any](zero func() U) (DerivedOps[U], error) {
	var ops DerivedOps[U]
	proto := zero()
	p, err := analyze(reflect.TypeOf(proto))
	if err != nil {
		return ops, err
	}

	ops.Merge = func(a, b U) U {
		va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
		if p.wholeSlice {
			// U is itself a slice: elementwise add into a's backing array.
			addSliceValue(va, vb, p.wholeKind)
			return a
		}
		for _, f := range p.fields {
			fa, fb := va.Field(f.index), vb.Field(f.index)
			switch f.kind {
			case kindF64Slice, kindI64Slice:
				addSliceValue(fa, fb, f.kind)
			case kindF64Scalar:
				fa.SetFloat(fa.Float() + fb.Float())
			case kindI64Scalar:
				fa.SetInt(fa.Int() + fb.Int())
			}
		}
		return a
	}

	ops.Split = func(u U, i, n int) AutoSegment {
		var seg AutoSegment
		v := reflect.ValueOf(u)
		if p.wholeSlice {
			appendSliceSegment(&seg, v, p.wholeKind, i, n)
			return seg
		}
		for _, f := range p.fields {
			fv := v.Field(f.index)
			switch f.kind {
			case kindF64Slice, kindI64Slice:
				appendSliceSegment(&seg, fv, f.kind, i, n)
			case kindF64Scalar:
				if i == 0 {
					seg.ScalarF = append(seg.ScalarF, fv.Float())
				}
			case kindI64Scalar:
				if i == 0 {
					seg.ScalarI = append(seg.ScalarI, fv.Int())
				}
			}
		}
		return seg
	}

	ops.Reduce = func(a, b AutoSegment) AutoSegment {
		for i := range a.F64 {
			AddF64(a.F64[i], b.F64[i])
		}
		for i := range a.I64 {
			for j := range a.I64[i] {
				a.I64[i][j] += b.I64[i][j]
			}
		}
		for i := range a.ScalarF {
			a.ScalarF[i] += b.ScalarF[i]
		}
		for i := range a.ScalarI {
			a.ScalarI[i] += b.ScalarI[i]
		}
		return a
	}

	ops.Concat = func(segs []AutoSegment) AutoSegment {
		if len(segs) == 0 {
			return AutoSegment{}
		}
		var out AutoSegment
		nf, ni := len(segs[0].F64), len(segs[0].I64)
		for fi := 0; fi < nf; fi++ {
			parts := make([][]float64, len(segs))
			for k, s := range segs {
				parts[k] = s.F64[fi]
			}
			out.F64 = append(out.F64, ConcatSlices(parts))
		}
		for ii := 0; ii < ni; ii++ {
			parts := make([][]int64, len(segs))
			for k, s := range segs {
				parts[k] = s.I64[ii]
			}
			out.I64 = append(out.I64, ConcatSlices(parts))
		}
		// Scalars live only in segment 0 (already globally reduced).
		out.ScalarF = segs[0].ScalarF
		out.ScalarI = segs[0].ScalarI
		return out
	}

	ops.Rebuild = func(seg AutoSegment) U {
		out := zero()
		v := reflect.ValueOf(&out).Elem()
		if p.wholeSlice {
			if p.wholeKind == kindF64Slice {
				v.Set(reflect.ValueOf(seg.F64[0]))
			} else {
				v.Set(reflect.ValueOf(seg.I64[0]))
			}
			return out
		}
		fi, ii, sf, si := 0, 0, 0, 0
		for _, f := range p.fields {
			fv := v.Field(f.index)
			switch f.kind {
			case kindF64Slice:
				fv.Set(reflect.ValueOf(seg.F64[fi]))
				fi++
			case kindI64Slice:
				fv.Set(reflect.ValueOf(seg.I64[ii]))
				ii++
			case kindF64Scalar:
				fv.SetFloat(seg.ScalarF[sf])
				sf++
			case kindI64Scalar:
				fv.SetInt(seg.ScalarI[si])
				si++
			}
		}
		return out
	}

	return ops, nil
}

func addSliceValue(dst, src reflect.Value, kind fieldKind) {
	switch kind {
	case kindF64Slice:
		AddF64(dst.Interface().([]float64), src.Interface().([]float64))
	case kindI64Slice:
		a := dst.Interface().([]int64)
		b := src.Interface().([]int64)
		if len(a) != len(b) {
			panic("core: derived merge length mismatch")
		}
		for i := range a {
			a[i] += b[i]
		}
	}
}

func appendSliceSegment(seg *AutoSegment, v reflect.Value, kind fieldKind, i, n int) {
	switch kind {
	case kindF64Slice:
		seg.F64 = append(seg.F64, SplitSliceCopy(v.Interface().([]float64), i, n))
	case kindI64Slice:
		seg.I64 = append(seg.I64, SplitSliceCopy(v.Interface().([]int64), i, n))
	}
}

// DerivedFuncs builds the AggFuncs for Aggregate with every splitting
// callback derived from U's structure: the user supplies only what
// treeAggregate already required (zero and seqOp), and split
// aggregation comes for free — the paper's §6 vision of removing the
// extra programming effort the interface trades for performance. It
// returns the callback set plus the rebuild function that converts the
// final AutoSegment back into a U.
func DerivedFuncs[T, U any](zero func() U, seqOp func(U, T) U) (AggFuncs[T, U, AutoSegment], func(AutoSegment) U, error) {
	ops, err := Derive(zero)
	if err != nil {
		return AggFuncs[T, U, AutoSegment]{}, nil, err
	}
	return AggFuncs[T, U, AutoSegment]{
		Zero:     zero,
		SeqOp:    seqOp,
		MergeOp:  ops.Merge,
		SplitOp:  ops.Split,
		ReduceOp: ops.Reduce,
		ConcatOp: ops.Concat,
	}, ops.Rebuild, nil
}
