package serde

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseF64Wire is a []float64's tag 7 frame in the dense form, written
// out by hand: the bytes every vector had before the packed form, and
// the bytes a vector that does not pack must still have.
func denseF64Wire(v []float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, tagF64Slice)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// requireF64RoundTrip encodes v, checks the form against the shared size
// rule — packed, at exactly 8 header bytes plus PackedSizeF64, iff the
// rule packs it; otherwise the dense bytes — and checks that the frame
// decodes, whole, to v bit for bit.
func requireF64RoundTrip(t *testing.T, name string, v []float64) {
	t.Helper()
	wire, err := Encode(nil, v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	size := PackedSizeF64(v, 0, len(v), nil, 0)
	packed := binary.LittleEndian.Uint32(wire[4:])&f64PackedBit != 0
	switch {
	case packed != (size > 0):
		t.Fatalf("%s: packed %v, but the size rule says %d", name, packed, size)
	case packed && len(wire) != 8+size:
		t.Fatalf("%s: packed frame of %d bytes, the rule sized %d", name, len(wire), 8+size)
	case !packed && !bytes.Equal(wire, denseF64Wire(v)):
		t.Fatalf("%s: a vector that does not pack left the dense bytes", name)
	}
	got, n, err := Decode(wire)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if n != len(wire) {
		t.Fatalf("%s: decode consumed %d of %d bytes", name, n, len(wire))
	}
	out := got.([]float64)
	if len(out) != len(v) {
		t.Fatalf("%s: %d elements back, want %d", name, len(out), len(v))
	}
	for i := range v {
		if math.Float64bits(out[i]) != math.Float64bits(v[i]) {
			t.Fatalf("%s: element %d is %#x, want %#x", name, i, math.Float64bits(out[i]), math.Float64bits(v[i]))
		}
	}
}

// TestF64SliceRoundTripBits: tag 7 round-trips every vector bit for bit
// in whichever form the ½ rule picks — around the 64-element bitmap word
// and at a wide aggregator's length; empty, 1 %, the wide workload's
// 5.6 %, the ½ limit ±1 and full; with −0.0, NaN payloads and subnormals
// among the values (set bits) and exact +0.0 everywhere else (clear
// bits). A vector that does not pack is byte-identical to the dense
// form.
func TestF64SliceRoundTripBits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	specials := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Float64frombits(0xfff0_0000_0000_0001), math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64}
	for _, n := range []int{0, 1, 63, 64, 65, 1_000_002} {
		limit := n/packThreshold - PackedWords(n)
		counts := map[string]int{
			"0%": 0, "1%": n / 100, "5.6%": n * 56 / 1000,
			"limit-1": limit - 1, "limit": limit, "limit+1": limit + 1, "100%": n,
		}
		for density, nnz := range counts {
			if nnz < 0 || nnz > n {
				continue
			}
			v := make([]float64, n)
			for k, j := range rng.Perm(n)[:nnz] {
				v[j] = rng.NormFloat64()
				if k%7 == 0 {
					v[j] = specials[k%len(specials)]
				}
			}
			requireF64RoundTrip(t, fmt.Sprintf("n=%d/%s", n, density), v)
		}
	}
}

// TestF64SliceEncodeOneAlloc: a vector that packs is written once, into
// one allocation of exactly its size — tag included.
func TestF64SliceEncodeOneAlloc(t *testing.T) {
	v := make([]float64, 1_000_002)
	rng := rand.New(rand.NewSource(5))
	for _, j := range rng.Perm(len(v))[:len(v)*56/1000] {
		v[j] = rng.NormFloat64()
	}
	var x any = v
	var wire []byte
	if allocs := testing.AllocsPerRun(5, func() { wire, _ = Encode(nil, x) }); allocs != 1 {
		t.Errorf("Encode(nil, v) made %v allocations, want 1", allocs)
	}
	if binary.LittleEndian.Uint32(wire[4:])&f64PackedBit == 0 {
		t.Fatal("the 5.6 % vector did not pack")
	}
	if cap(wire) != len(wire) {
		t.Errorf("encoded %d bytes into a buffer of %d", len(wire), cap(wire))
	}
}

// FuzzF64SliceRoundTrip: any bytes, read as float64 words, encode and
// decode back bit for bit in the form the size rule picks.
func FuzzF64SliceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 8*200))
	sparse := make([]byte, 8*300)
	for _, i := range []int{3, 64, 65, 299} {
		binary.LittleEndian.PutUint64(sparse[8*i:], 0x7ff8_0000_dead_beef)
	}
	binary.LittleEndian.PutUint64(sparse[8*100:], 1<<63) // −0.0
	f.Add(sparse)
	f.Add(bytes.Repeat([]byte{1, 0, 0, 0, 0, 0, 0, 0}, 70))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := make([]float64, len(data)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		requireF64RoundTrip(t, "fuzz", v)
	})
}

// FuzzEncodeF64Support: a vector given as a support and the values at
// its set bits encodes, when the support settles the packed form, to the
// bytes EncodeF64 writes for the expanded vector with that support —
// whatever the values' bits (+0.0, −0.0, NaN payloads, subnormals) and
// whatever the support holds past n, in the one buffer it draws. A
// declined call draws nothing.
func FuzzEncodeF64Support(f *testing.F) {
	for _, s := range []struct {
		n       uint32
		density uint8
		seed    int64
	}{
		{0, 10, 1}, {1, 255, 2}, {63, 40, 3}, {64, 20, 4}, {65, 20, 5},
		{1000, 128, 6}, {1000, 120, 7}, {4097, 14, 8}, {70_000, 14, 9}, {3000, 0, 10},
	} {
		f.Add(s.n, s.density, s.seed)
	}
	specials := []uint64{0, 1 << 63, 0x7ff8_0000_dead_beef, 1, math.Float64bits(2.5)}
	f.Fuzz(func(t *testing.T, n uint32, density uint8, seed int64) {
		size := int(n % (1 << 18))
		rng := rand.New(rand.NewSource(seed))
		// One spare word, with random bits past n in it and the last word.
		sup := make([]uint64, PackedWords(size)+1)
		v := make([]float64, size)
		var vals []float64
		for i := range 64 * len(sup) {
			if rng.Intn(256) >= int(density) {
				continue
			}
			sup[i/64] |= 1 << uint(i%64)
			if i >= size {
				continue
			}
			x := rng.NormFloat64()
			if rng.Intn(2) == 0 {
				x = math.Float64frombits(specials[rng.Intn(len(specials))])
			}
			v[i] = x
			vals = append(vals, x)
		}
		drawn := -1
		got, ok := EncodeF64Support(func(n int) []byte { drawn = n; return make([]byte, 0, n) }, size, sup, vals)
		if !ok {
			if got != nil || drawn >= 0 {
				t.Fatalf("n=%d: a declined encode drew %d bytes and returned %x", size, drawn, got)
			}
			return
		}
		if len(got) > drawn || cap(got) != drawn {
			t.Fatalf("n=%d: a %d-byte frame written outside its %d-byte draw", size, len(got), drawn)
		}
		want, err := EncodeF64(nil, v, sup)
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint32(want[4:])&f64PackedBit == 0 {
			t.Fatalf("n=%d: encoded from a support EncodeF64 writes dense", size)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d, %d values: %d bytes from the support, EncodeF64 wrote %d", size, len(vals), len(got), len(want))
		}
	})
}

// requireMergeMatchesDecodeAdd holds DecodeReduceF64(acc, wire) to
// Decode-then-add bit for bit. acc must be a sum from +0.0. A frame
// Decode refuses, or one that is not a []float64 of len(acc) elements,
// must be refused with acc untouched; the merge's error is returned.
func requireMergeMatchesDecodeAdd(t *testing.T, name string, acc []float64, wire []byte) error {
	t.Helper()
	want := append([]float64(nil), acc...)
	v, _, derr := Decode(wire)
	dv, ok := v.([]float64)
	ok = derr == nil && ok && len(dv) == len(acc)
	if ok {
		for i, x := range dv {
			want[i] += x
		}
	}
	err := DecodeReduceF64(acc, wire)
	if ok != (err == nil) {
		t.Fatalf("%s: merge error %v, decode error %v", name, err, derr)
	}
	for i := range want {
		if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %#x after the merge, want %#x", name, i, math.Float64bits(acc[i]), math.Float64bits(want[i]))
		}
	}
	return err
}

// sumFromZero is +0.0 + v[i] per element: an accumulator the driver's
// merge can hold, which is never −0.0 nor a signaling NaN.
func sumFromZero(v []float64) []float64 {
	acc := make([]float64, len(v))
	for i, x := range v {
		acc[i] += x
	}
	return acc
}

// TestF64MergeWire: the driver's merge adds a tag 7 frame into its
// accumulator without a decoded vector, and gives the bits Decode-then-
// add gives, for dense and packed frames, lengths around the bitmap word,
// −0.0, NaN payloads and ±Inf among the values, into zero and non-zero
// accumulators. Frames cut short, of another length or another type are
// refused with acc untouched, and one with a flipped bitmap bit fares as
// it does under Decode. The frame's bytes do not depend on the candidate
// bits it is encoded from.
func TestF64MergeWire(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001),
		math.Inf(1), math.Inf(-1)}
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
		for _, nnz := range []int{0, n / 20, n / 4, n} {
			v := make([]float64, n)
			cand := make([]uint64, PackedWords(n))
			for k, j := range rng.Perm(n)[:nnz] {
				v[j] = rng.NormFloat64()
				if k%5 == 0 {
					v[j] = specials[k%len(specials)]
				}
				cand[j/64] |= 1 << uint(j%64)
			}
			for j := 0; j < n; j += 7 { // candidates that hold +0.0
				cand[j/64] |= 1 << uint(j%64)
			}
			wire := MustEncode(nil, v)
			for _, c := range [][]uint64{nil, cand} {
				if got, _ := EncodeF64(nil, v, c); !bytes.Equal(got, wire) {
					t.Fatalf("n=%d nnz=%d: EncodeF64 with candidates %v left Encode's bytes", n, nnz, c != nil)
				}
			}
			form := "dense"
			if n > 0 && binary.LittleEndian.Uint32(wire[4:])&f64PackedBit != 0 {
				form = "packed"
			}
			name := fmt.Sprintf("n=%d/nnz=%d/%s", n, nnz, form)
			base := make([]float64, n)
			for i := range base {
				base[i] = rng.NormFloat64()
			}
			for _, acc := range [][]float64{make([]float64, n), sumFromZero(base), sumFromZero(v)} {
				if err := requireMergeMatchesDecodeAdd(t, name, acc, wire); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, bad := range []struct {
					name string
					acc  []float64
					wire []byte
				}{
					{"truncated", acc, wire[:len(wire)-1]},
					{"header only", acc, wire[:min(len(wire), 7)]},
					{"one element more", append(acc, 0), wire},
				} {
					if requireMergeMatchesDecodeAdd(t, name+"/"+bad.name, bad.acc, bad.wire) == nil {
						t.Fatalf("%s/%s: merged", name, bad.name)
					}
				}
			}
			if form == "packed" {
				flipped := bytes.Clone(wire)
				flipped[8] ^= 1
				requireMergeMatchesDecodeAdd(t, name+"/flipped bit", sumFromZero(base), flipped)
			}
		}
	}
	for name, wire := range map[string][]byte{"[]int64": MustEncode(nil, []int64{1, 2}), "empty": nil} {
		if requireMergeMatchesDecodeAdd(t, name, make([]float64, 2), wire) == nil {
			t.Fatalf("%s: merged", name)
		}
	}
}

// FuzzF64MergeWire: whatever bytes reach the driver's merge, it adds
// what Decode-then-add would, or refuses them with acc untouched.
func FuzzF64MergeWire(f *testing.F) {
	sparse := make([]float64, 130)
	sparse[3], sparse[64], sparse[129] = math.Copysign(0, -1), math.NaN(), math.Inf(-1)
	f.Add(MustEncode(nil, sparse), []byte(nil), uint8(0))
	f.Add(MustEncode(nil, []float64{1, math.Inf(1), 3}), bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, 3), uint8(0))
	f.Add(MustEncode(nil, sparse)[:40], []byte(nil), uint8(0))
	f.Add(MustEncode(nil, []float64{1}), []byte(nil), uint8(1))
	f.Add(MustEncode(nil, "x"), []byte(nil), uint8(0))
	f.Fuzz(func(t *testing.T, wire, accBytes []byte, extra uint8) {
		// The accumulator is as long as the frame says, give or take
		// extra, and a sum from +0.0 of the words accBytes holds.
		n := 0
		if len(wire) >= 8 {
			n = int(binary.LittleEndian.Uint32(wire[4:]) &^ f64PackedBit)
		}
		n = min(n+int(extra%3), 1<<16)
		base := make([]float64, n)
		for i := 0; i < n && 8*i+8 <= len(accBytes); i++ {
			base[i] = math.Float64frombits(binary.LittleEndian.Uint64(accBytes[8*i:]))
		}
		requireMergeMatchesDecodeAdd(t, "fuzz", sumFromZero(base), wire)
	})
}

// BenchmarkSerdeF64 is tag 7's encode, decode and merge (the driver's
// decode-reduce into an accumulator) of a wide aggregator
// (1 000 002 elements, 8 MB dense): a dense ramp, which the probe sends
// dense, and the wide workload's 5.6 % gradient, which packs. MB/s is
// over the dense 8·n bytes either way.
func BenchmarkSerdeF64(b *testing.B) {
	const n = 1_000_002
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = float64(i) + 1
	}
	sparse := make([]float64, n)
	rng := rand.New(rand.NewSource(56))
	for _, j := range rng.Perm(n)[:n*56/1000] {
		sparse[j] = rng.NormFloat64()
	}
	for _, c := range []struct {
		name string
		v    []float64
	}{{"dense-ramp", ramp}, {"sparse-5.6%", sparse}} {
		wire := MustEncode(nil, c.v)
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.SetBytes(8 * n)
			buf := make([]byte, 0, len(wire))
			for i := 0; i < b.N; i++ {
				buf = MustEncode(buf[:0], c.v)
			}
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				if _, _, err := Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("merge/"+c.name, func(b *testing.B) {
			b.SetBytes(8 * n)
			acc := make([]float64, n)
			for i := 0; i < b.N; i++ {
				if err := DecodeReduceF64(acc, wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
