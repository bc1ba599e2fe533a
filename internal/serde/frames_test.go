package serde

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sumSequential is what the driver's merge made of addend frames: a
// vector of +0.0 that DecodeReduceF64 adds each frame into, in order.
func sumSequential(t testing.TB, n int, frames [][]byte) []float64 {
	t.Helper()
	acc := make([]float64, n)
	for i, f := range frames {
		if err := DecodeReduceF64(acc, f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	return acc
}

// readAll reads f's [lo, hi) through Read, checking that the tiles come
// in order, back to back.
func readAll(t testing.TB, f *F64Frames, lo, hi int) []float64 {
	t.Helper()
	var out []float64
	next := lo
	f.Read(lo, hi, func(off int, tile []float64) {
		if off != next || len(tile) == 0 || len(tile) > f.tile {
			t.Fatalf("read [%d,%d): tile of %d at %d, want one of 1…%d at %d", lo, hi, len(tile), off, f.tile, next)
		}
		out = append(out, tile...)
		next += len(tile)
	})
	if next != hi {
		t.Fatalf("read [%d,%d) stopped at %d", lo, hi, next)
	}
	return out
}

func bitsSame(t testing.TB, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %#x, want %#x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// craftedVector is n elements, nnz of them non-zero, with −0.0, NaN
// payloads, ±Inf and a subnormal among the values.
func craftedVector(rng *rand.Rand, n, nnz int) []float64 {
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	v := make([]float64, n)
	for k, j := range rng.Perm(n)[:nnz] {
		v[j] = rng.NormFloat64()
		if k%4 == 0 {
			v[j] = specials[k%len(specials)]
		}
	}
	return v
}

// TestF64FramesSum: a sum reader over dense and packed addends gives,
// tile by tile and over any range read in any order, the bits of adding
// the frames in order into +0.0 — a −0.0 in every addend included, which
// the +0.0 head turns into +0.0 — and a range reader gives each word of
// its raw, packed and framed ranges as it is. Sets whose frames disagree
// on the length, are cut short or are not []float64 are refused.
func TestF64FramesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{1, 63, 64, 65, 130, 5000} {
		var frames [][]byte
		var vecs [][]float64
		for k, nnz := range []int{n, n / 20, 0, n / 3} {
			v := craftedVector(rng, n, nnz)
			v[0] = math.Copysign(0, -1)
			if k == 2 {
				v = make([]float64, n) // an all-zero addend
			}
			vecs = append(vecs, v)
			frames = append(frames, MustEncode(nil, v))
		}
		want := sumSequential(t, n, frames)
		if math.Signbit(want[0]) {
			t.Fatalf("n=%d: the reference kept a −0.0", n)
		}
		for _, tile := range []int{1, 7, 64, 100, tileElems} {
			name := fmt.Sprintf("n=%d/tile=%d", n, tile)
			f, err := SumF64(frames)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			f.tile = tile
			bitsSame(t, name+"/sum", readAll(t, f, 0, n), want)
			lo, hi := n/3, n-n/5
			bitsSame(t, name+"/sum sub-range after a full read", readAll(t, f, lo, hi), want[lo:hi])
			bitsSame(t, name+"/sum from the start again", readAll(t, f, 0, lo), want[:lo])
			bitsSame(t, name+"/dense", f.Dense(), want)
			f.Release()

			// The same vectors as ranges laid end to end: raw, packed,
			// framed.
			c := ConcatF64()
			c.tile = tile
			var whole []float64
			for k, v := range vecs {
				var err error
				switch k % 3 {
				case 0:
					err = c.AppendRaw(AppendFloat64s(nil, v))
				case 1:
					dst := make([]byte, 0, 8*(PackedWords(n)+n))
					err = c.AppendPacked(n, EncodePackedF64(dst, v, 0, n, nil, 0))
				default:
					err = c.AppendFrame(MustEncode(nil, v))
				}
				if err != nil {
					t.Fatalf("%s: range %d: %v", name, k, err)
				}
				whole = append(whole, v...)
			}
			if c.Len() != len(whole) {
				t.Fatalf("%s: %d elements in ranges, want %d", name, c.Len(), len(whole))
			}
			bitsSame(t, name+"/concat", readAll(t, c, 0, len(whole)), whole)
			lo, hi = n/2, 3*n+1
			bitsSame(t, name+"/concat across ranges", readAll(t, c, lo, hi), whole[lo:hi])
			c.Release()
		}
		for _, bad := range []struct {
			name   string
			frames [][]byte
		}{
			{"no frame", nil},
			{"lengths disagree", [][]byte{frames[0], MustEncode(nil, make([]float64, n+1))}},
			{"truncated", [][]byte{frames[0], frames[1][:len(frames[1])-1]}},
			{"not a []float64", [][]byte{frames[0], MustEncode(nil, []int64{1})}},
		} {
			if f, err := SumF64(bad.frames); err == nil {
				t.Fatalf("n=%d/%s: accepted a %d-element sum", n, bad.name, f.Len())
			}
		}
	}
	c := ConcatF64()
	defer c.Release()
	if c.AppendRaw(make([]byte, 12)) == nil {
		t.Fatal("a range of 12 bytes was accepted")
	}
	if err := c.AppendPacked(3, []byte{0b1000, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("a packed range with a bit past its elements was accepted")
	}
}

// TestF64FramesReadAllocs: a reader drawn from the pool reads without
// allocating.
func TestF64FramesReadAllocs(t *testing.T) {
	frame := MustEncode(nil, craftedVector(rand.New(rand.NewSource(1)), 10_000, 300))
	frames := [][]byte{frame, frame}
	var sum float64
	read := func(off int, tile []float64) { sum += tile[0] }
	if a := testing.AllocsPerRun(50, func() {
		f, err := SumF64(frames)
		if err != nil {
			t.Fatal(err)
		}
		f.Read(0, f.Len(), read)
		f.Release()
	}); a != 0 {
		t.Errorf("SumF64, Read, Release: %v allocations, want 0", a)
	}
}

// FuzzF64Sum: k tag 7 frames built from the input — each dense or
// packed as its data decides, one cut down to every fifth element so
// the set mixes both forms — read tile by tile at a random tile size,
// equal sequential DecodeReduceF64 from +0.0, bit for bit; and a set
// with a corrupted byte is read the same way or refused, never misread.
func FuzzF64Sum(f *testing.F) {
	words := func(vs ...float64) []byte { return AppendFloat64s(nil, vs) }
	f.Add(words(1, 2, 3, 4, 5, 6), uint8(1), uint16(1), uint8(0b01), uint16(0))
	f.Add(words(math.Copysign(0, -1), math.NaN(), 0, 0, math.Inf(1), 7, 0, 0), uint8(3), uint16(3), uint8(0b10), uint16(0))
	f.Add(bytes.Repeat(words(0, 0, 0, 2.5, 0, 0, 0, 0, 0, 0), 40), uint8(2), uint16(64), uint8(0b11), uint16(0))
	f.Add(bytes.Repeat(words(1.5, math.Copysign(0, -1)), 100), uint8(1), uint16(100), uint8(0x81), uint16(9))
	f.Add(bytes.Repeat(words(0, 0, 0, 0, 3), 50), uint8(2), uint16(5), uint8(0x83), uint16(12))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, tile uint16, mask uint8, at uint16) {
		nFrames := 1 + int(k%4)
		n := min(len(data)/8/nFrames, 4096)
		frames := make([][]byte, nFrames)
		for j := range frames {
			v := make([]float64, n)
			for i := range v {
				if mask&(1<<uint(j)) == 0 || i%5 == 0 {
					v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(j*n+i):]))
				}
			}
			frames[j] = MustEncode(nil, v)
		}
		if mask&0x80 != 0 {
			// Corrupt one byte of one frame.
			j := int(at) % nFrames
			p := int(at) % len(frames[j])
			frames[j] = bytes.Clone(frames[j])
			frames[j][p] ^= byte(at>>8) | 1
		}
		r, err := SumF64(frames)
		if err != nil {
			// Refused: then some frame is no []float64 of the first's
			// length.
			n0 := -1
			for _, fr := range frames {
				v, _, derr := Decode(fr)
				s, ok := v.([]float64)
				if derr != nil || !ok || n0 >= 0 && len(s) != n0 {
					return
				}
				n0 = len(s)
			}
			t.Fatalf("refused frames that all decode to %d elements: %v", n0, err)
		}
		defer r.Release()
		r.tile = 1 + int(tile)%tileElems
		want := sumSequential(t, r.Len(), frames)
		bitsSame(t, "sum", readAll(t, r, 0, r.Len()), want)
		lo := int(at) % (r.Len() + 1)
		bitsSame(t, "sub-range", readAll(t, r, lo, r.Len()), want[lo:])
	})
}
