package core

import (
	"math"
	"runtime"
	"testing"

	"sparker/internal/collective"
	"sparker/internal/serde"
)

// TestNaNPayloadOfEveryAdder pins which NaN every []float64 adder keeps
// when both addends are NaN: the incoming addend's, not the
// accumulator's. IEEE 754 leaves the choice open, and amd64's ADDSD
// returns its destination register's NaN, so the adders agree only
// because each one's source puts the incoming value first; "same bits"
// across planes and strategies rests on that. Every adder here is
// reachable through an exported name: AddF64 (the f64 plane's merge and
// reduce), F64Ops' Reduce (linalg.AddAssign), DecodeReduceF64 from a
// dense and a packed frame (the tree's
// combine tasks), SumF64 (the driver's read of tree and IMM frames),
// F64Ops' dense chunk add and DecodeReducePackedF64 (the ring's chunk
// kernels), and a body's MergePacked and MergeDense (the compact ring).
func TestNaNPayloadOfEveryAdder(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("which NaN a float add returns is the architecture's choice; this pins amd64's, where ADDSD returns its destination's")
	}
	const n, at = 256, 3
	accNaN, inNaN := math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0x7ff8_0000_0000_0002)
	// vec is an n-element vector holding nan at element at, and 1.5
	// everywhere else when dense, +0.0 when not (so it packs).
	vec := func(nan float64, dense bool) []float64 {
		v := make([]float64, n)
		for i := range v {
			if dense {
				v[i] = 1.5
			}
		}
		v[at] = nan
		return v
	}
	frame := func(v []float64) []byte {
		b, err := serde.EncodeF64(nil, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	packed := func(v []float64) []byte {
		return serde.EncodePackedF64(make([]byte, 0, 8*(n+serde.PackedWords(n))), v, 0, n, nil, 0)
	}
	body := func(acc []float64) *serde.Body {
		vals, sup := compactOf(acc, func(int) bool { return false })
		b := new(serde.Body)
		b.Load(n, sup, 0, vals)
		return b
	}
	ops := collective.F64Ops()
	for _, c := range []struct {
		name string
		add  func(acc, in []float64) ([]float64, error)
	}{
		{"AddF64", func(acc, in []float64) ([]float64, error) { return AddF64(acc, in), nil }},
		{"F64Ops.Reduce", func(acc, in []float64) ([]float64, error) { return ops.Reduce(acc, in), nil }},
		{"DecodeReduceF64", func(acc, in []float64) ([]float64, error) { return acc, serde.DecodeReduceF64(acc, frame(in)) }},
		{"SumF64", func(acc, in []float64) ([]float64, error) {
			agg, err := serde.SumF64([][]byte{frame(acc), frame(in)})
			if err != nil {
				return nil, err
			}
			defer agg.Release()
			return agg.Dense(), nil
		}},
		{"F64Ops dense chunk", func(acc, in []float64) ([]float64, error) {
			return acc, ops.DecodeReduceChunkInto(acc, 0, ops.EncodeChunkTo(nil, in, 0, n))
		}},
		{"DecodeReducePackedF64", func(acc, in []float64) ([]float64, error) {
			return acc, serde.DecodeReducePackedF64(acc, 0, n, packed(in))
		}},
		{"Body.MergePacked", func(acc, in []float64) ([]float64, error) {
			b := body(acc)
			return b.Densify(), b.MergePacked(0, n, packed(in))
		}},
		{"Body.MergeDense", func(acc, in []float64) ([]float64, error) {
			b := body(acc)
			err := b.MergeDense(0, rawWords(in))
			return b.Densify(), err
		}},
	} {
		for _, dense := range []bool{true, false} {
			if !dense && c.name == "F64Ops dense chunk" {
				continue
			}
			got, err := c.add(vec(accNaN, dense), vec(inNaN, dense))
			if err != nil {
				t.Fatalf("%s, dense %v: %v", c.name, dense, err)
			}
			if g, w := math.Float64bits(got[at]), math.Float64bits(inNaN); g != w {
				t.Errorf("%s, dense %v: NaN + NaN kept %#x, want the incoming %#x", c.name, dense, g, w)
			}
		}
	}
}
