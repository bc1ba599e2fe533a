package core

// The f64 plane (AggregateF64): a []float64 sum whose callbacks are
// fixed, so core can read it in its support, fold it compactly
// (compact.go), move its frames as []float64 words and end it on the
// driver straight from them (Finish).

import (
	"context"
	"fmt"
	"slices"

	"sparker/internal/collective"
	"sparker/internal/rdd"
	"sparker/internal/serde"
	"sparker/internal/transport"
)

// support is what core knows of an aggregator's possibly non-zero
// elements (F64Funcs.Support): a bitmap over its elements, bit i%64 of
// word i/64 for element i. The zero value knows nothing, so the ring
// scans; known with nil bits means every element is still +0.0.
// borrowed bits are an element's own bitmap, which core only reads;
// core copies them before the first write (add).
type support struct {
	bits     []uint64
	known    bool
	borrowed bool
}

// add ORs one element's support into s — borrowing it, the first time.
// A nil support, or one whose length disagrees, makes s unknown.
func (s *support) add(b []uint64) {
	switch {
	case !s.known:
	case b == nil || s.bits != nil && len(b) != len(s.bits):
		*s = support{}
	case s.bits == nil:
		s.bits, s.borrowed = b, true
	default:
		s.own()
		for i, w := range b {
			s.bits[i] |= w
		}
	}
}

// own makes s's bits its own copy.
func (s *support) own() {
	if s.borrowed {
		s.bits, s.borrowed = slices.Clone(s.bits), false
	}
}

// view is the bitmap of an aggregator of elems elements, for reading —
// all clear for an aggregator that is still +0.0 — or nil when s is
// unknown or sized for something else.
func (s *support) view(elems int) []uint64 {
	n := serde.PackedWords(elems)
	switch {
	case !s.known || s.bits != nil && len(s.bits) != n:
		return nil
	case s.bits == nil:
		s.bits = make([]uint64, n)
	}
	return s.bits
}

// f64Acc is an f64-plane accumulator: Dim values, or, compact, the
// values at sup's set bits (compact.go); sup is what core knows of its
// support.
type f64Acc struct {
	vals    []float64
	sup     support
	compact bool
}

// f64Plane is the plane (core.go) of F64Funcs: get and put draw and
// recycle its dense vectors (AggregateF64: linalg's free list), and ops
// are its ring's segment ops (collective.BodyOps: every segment a
// serde.Body). A dense aggregator's bodies view it, so the ring reduces
// in place in each executor's aggregator; ConcatSlices copies and frames
// encode by value, so a recycled vector is never aliased.
type f64Plane[T any] struct {
	F64Funcs[T]
	get func(n int) []float64
	put func([]float64)
	ops collective.Ops[*serde.Body]
}

func (f *f64Plane[T]) validate(s Strategy) error {
	if f.Dim < 1 || f.SeqOp == nil {
		return fmt.Errorf("core: AggregateF64(%v) requires a positive Dim and SeqOp", s)
	}
	return nil
}

// fold ORs the supports of data's elements, then folds compactly
// (Fold) or, when that declines, with SeqOp from +0.0. Only a known
// support of Dim's words folds compactly, into a buffer from
// compactVals, and an accepted fold must hold one value per set bit.
func (f *f64Plane[T]) fold(data []T) (f64Acc, error) {
	a := f64Acc{sup: support{known: f.Support != nil}}
	for i := 0; f.Support != nil && i < len(data); i++ {
		a.sup.add(f.Support(data[i]))
	}
	if sup := a.sup.bits; f.Fold != nil && len(sup) == serde.PackedWords(f.Dim) {
		buf := compactVals.get(onesBelow(sup, f.Dim))[:0]
		vals, ok, err := f.Fold(buf, data)
		switch {
		case ok && err == nil && len(vals) != onesBelow(sup, f.Dim):
			return a, fmt.Errorf("core: Fold returned %d values for a support of %d", len(vals), onesBelow(sup, f.Dim))
		case ok && err == nil:
			a.vals, a.compact = vals, true
			return a, nil
		}
		compactVals.put(buf)
		if err != nil {
			return a, err
		}
	}
	a.vals = f.get(f.Dim)
	for _, v := range data {
		a.vals = f.SeqOp(a.vals, v)
	}
	return a, nil
}

// dense is a laid out dense: a compact one's values written at its
// support's set bits into get(Dim) — bit for bit the aggregator SeqOp
// would have made — and handed back to compactVals.
func (f *f64Plane[T]) dense(a f64Acc) f64Acc {
	if !a.compact {
		return a
	}
	u := f.get(f.Dim)
	serde.ScatterF64(u, a.sup.bits, a.vals)
	compactVals.put(a.vals)
	return f64Acc{vals: u, sup: a.sup}
}

// merge expands a compact side first, which is exact, so the merges
// are the dense path's.
func (f *f64Plane[T]) merge(a, acc f64Acc) f64Acc {
	a, acc = f.dense(a), f.dense(acc)
	a.vals = AddF64(a.vals, acc.vals)
	if !acc.sup.known {
		a.sup = support{}
	} else if acc.sup.bits != nil {
		a.sup.add(acc.sup.bits)
	}
	f.put(acc.vals)
	return a
}

// encode writes a compact accumulator's frame from its values when its
// support settles the packed form, and otherwise expands it; a dense
// one is encoded from its support.
func (f *f64Plane[T]) encode(a f64Acc, draw func(int) []byte) ([]byte, error) {
	if a.compact {
		if frame, ok := serde.EncodeF64Support(draw, f.Dim, a.sup.bits, a.vals); ok {
			compactVals.put(a.vals)
			return frame, nil
		}
		a = f.dense(a)
	}
	frame, err := serde.EncodeF64(draw, a.vals, a.sup.view(len(a.vals)))
	f.put(a.vals)
	return frame, err
}

// mergeWire adds from the wire; a's support is unknown from here on.
func (f *f64Plane[T]) mergeWire(a f64Acc, wire []byte) (f64Acc, error) {
	a.sup = support{}
	return a, serde.DecodeReduceF64(a.vals, wire)
}

// read sums the frames from +0.0 in task order (serde.SumF64) for
// Finish, assembling the aggregate once, only for keep or a nil Finish.
func (f *f64Plane[T]) read(frames [][]byte, keep func([]float64) error) ([]float64, error) {
	defer putBufs(frames)
	agg, err := serde.SumF64(frames)
	if err != nil {
		return nil, err
	}
	defer agg.Release()
	if keep == nil {
		return f.finish(agg)
	}
	d := agg.Dense()
	if err := keep(d); err != nil || f.Finish == nil {
		return d, err
	}
	return f.Finish(agg)
}

// finish is Finish, or the dense aggregate with Finish nil.
func (f *f64Plane[T]) finish(agg *serde.F64Frames) ([]float64, error) {
	if f.Finish != nil {
		return f.Finish(agg)
	}
	return agg.Dense(), nil
}

// reduce reduce-scatters a through one compactSegs source at the width
// and SplitSlice bounds a dense aggregator rides: a compact one's
// segments as packed bodies, a dense one's as views of it with its
// support's share as candidates, and the same frames either way. For
// the allgather, the bodies it owns are densified once, in place.
func (f *f64Plane[T]) reduce(ctx context.Context, ec *rdd.ExecContext, a f64Acc, nExec, p int, allGather bool) (ringRun[[]float64], error) {
	p = collective.RingChannels(ctx, p, f.Dim, f.ops)
	src := newCompactSegs(a.vals, a.sup.view(f.Dim), f.Dim, p*nExec, a.compact)
	bodies, err := collective.RingReduceScatterFrom(ctx, ec.Comm, src, p, f.ops)
	run := ringRun[[]float64]{p: p, ops: collective.F64Ops(), src: src, bodies: bodies}
	if err == nil && allGather {
		run.owned = make(map[int][]float64, len(bodies))
		for i, b := range bodies {
			run.owned[i] = b.Densify()
		}
	}
	return run, err
}

func (f *f64Plane[T]) concat(segs [][]float64) []float64 { return ConcatSlices(segs) }

// release hands the run's bodies, and a compact aggregator's values, to
// core's free lists and a dense aggregator to put.
func (f *f64Plane[T]) release(run *ringRun[[]float64], a f64Acc) {
	run.src.release(run.bodies)
	if !a.compact {
		f.put(a.vals)
	}
}

func (f *f64Plane[T]) encodeResult(v []float64, draw func(int) []byte) ([]byte, error) {
	return serde.EncodeF64(draw, v, nil)
}

func (f *f64Plane[T]) readResult(p []byte) ([]float64, error) {
	agg := serde.ConcatF64()
	defer agg.Release()
	if err := agg.AppendFrame(p); err != nil {
		return nil, err
	}
	v, err := f.finish(agg)
	transport.PutBuf(p)
	return v, err
}

func (f *f64Plane[T]) readOwned(payloads [][]byte) ([]float64, error) {
	return decodeOwned(payloads, collective.F64Ops(), ConcatSlices[float64], f.finish)
}
