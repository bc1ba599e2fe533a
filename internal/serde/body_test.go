package serde

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// TestViewIsNeverParked: a view reduces in its caller's memory and sets
// the bits of what it merges, and its memory is never parked on
// denseVals — not when the body is loaded or made a view again — while a
// body that densified still parks its own dense buffer.
func TestViewIsNeverParked(t *testing.T) {
	parked := func() (out [][]float64) {
		for {
			select {
			case v := <-denseVals:
				out = append(out, v)
			default:
				return out
			}
		}
	}
	parked()
	agg := make([]float64, 200)
	words := func(vals ...float64) []byte {
		var p []byte
		for _, x := range vals {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(x))
		}
		return p
	}
	var b Body
	b.View(agg[10:150], make([]uint64, 4), 10) // every candidate bit clear
	if err := b.MergeDense(70, words(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if agg[80] != 1 || agg[82] != 3 || BitsAt(b.Bits, 70, 3) != 7 || candCount(b.Bits, 0, b.N) != 3 {
		t.Fatalf("the view did not merge in place or mark what it merged: %v %v bits %x", agg[80], agg[82], b.Bits)
	}
	ones := make([]float64, 64)
	for i := range ones {
		ones[i] = 1
	}
	b.Load(64, []uint64{^uint64(0)}, 0, ones) // past ½: dense, in a buffer of its own
	if !b.Dense || b.view {
		t.Fatal("a body loaded past ½ is not dense in its own buffer")
	}
	b.View(agg[:5], nil, 0)
	if b.Bits != nil {
		t.Fatal("a view without candidates has Bits")
	}
	b.Load(64, []uint64{0}, 0, nil) // all +0.0: stays packed
	got := parked()
	if len(got) != 1 {
		t.Fatalf("%d buffers parked, want the densified body's one", len(got))
	}
	for _, v := range got {
		if unsafe.SliceData(v) == unsafe.SliceData(agg) || unsafe.SliceData(v) == &agg[10] {
			t.Fatal("a view's memory was parked on denseVals")
		}
		if len(v) != 64 {
			t.Fatalf("parked a %d-element buffer, want the densified body's 64", len(v))
		}
	}
}
