package serde

// The zero-suppressed ("packed") form of a float64 vector (DESIGN.md
// §11) — the one implementation of it in the repository. The ring's
// chunks, the owned-segments gather frame and tag 7, the []float64
// codec, all write and read it through the functions below.
//
// The packed form of an n-element range is
//
//	[8B × ceil(n/64)]  presence bitmap, little-endian words; bit i%64 of
//	                   word i/64 is set iff element i is non-zero
//	[8B × popcount]    the non-zero element words, in element order
//
// where non-zero means *bit pattern* ≠ 0, so −0.0, NaN payloads and
// subnormals travel as themselves: the form is value-exact. An encoder
// picks it from the data, after one counting pass, only when it is at
// most half the dense bytes (packThreshold); otherwise the range goes out
// dense. Nothing selects it and nothing can switch it off. When the
// caller knows the range's support (candidate bits, below) and it is
// small enough to settle the choice, the counting pass and the mask read
// only the support's elements.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrMalformedPacked classifies a packed payload that fails validation:
// a bitmap of the wrong length, a popcount that disagrees with the value
// count, bits set past the range's last element, a truncated value
// array, or a range outside its destination. Every decoder validates the
// whole payload before its first store, so a malformed payload never
// leaves a partial write behind.
var ErrMalformedPacked = errors.New("serde: malformed packed vector")

// packThreshold: a range packs only when its packed payload is at most
// dense/packThreshold bytes. At ½ the scatter-shaped packed kernels are
// still ahead of the streaming dense ones (EXPERIMENTS.md "PR 17" micro
// rows), and a range near the boundary saves little either way.
const packThreshold = 2

// PackedWords is the bitmap length, in 8-byte words, of an n-element
// packed range.
func PackedWords(n int) int { return (n + 63) / 64 }

// nonZero is 1 when the word has any bit set, branch-free.
func nonZero(b uint64) int { return int((b | -b) >> 63) }

// A large range is probed before it is counted: every probeStride-th
// element (an odd stride, so no power-of-two layout hides from it), and
// when more than ¾ of those are non-zero the range is called dense at
// 1/17 of a pass. Calling a range dense is always safe — it goes out as
// it always did — and a range that dense under the probe yet at most
// half non-zero overall would need its zeros to dodge the stride.
const (
	probeStride = 17
	probeMin    = 1024
)

// PackedSizeF64 sizes the packed form of v[off:off+n]: the packed
// payload size when packing wins by packThreshold, else 0.
//
// With candidate bits (cand non-nil: bit bit+i of cand set for every
// element off+i that may be non-zero, bit b being bit b%64 of word b/64)
// that hold at most the limit, the range packs for certain, and the size
// is an upper bound read from the bitmap alone, 8·(words + candidates) —
// the elements are not read. The only other call the scan could make is
// the probe's, so that is checked on the candidates too; a range they do
// not settle is scanned. With cand nil the size is exact.
//
// The scan stops as soon as the non-zero count rules packing out — at
// once for a plainly dense range (the probe), after about half a pass
// for one near the threshold.
func PackedSizeF64(v []float64, off, n int, cand []uint64, bit int) int {
	words := PackedWords(n)
	limit := n/packThreshold - words // most non-zero words a winning range holds
	if limit < 0 {
		return 0
	}
	if cand != nil {
		if c := candCount(cand, bit, n); c <= limit && probeCannotFire(cand, bit, n) {
			return 8 * (words + c)
		}
	}
	s := v[off : off+n]
	if n >= probeMin {
		// It stops as soon as the remaining probes cannot change its call.
		probed := (n + probeStride - 1) / probeStride
		hit, left := 0, probed
		for i := 0; i < n; i += probeStride {
			hit += nonZero(math.Float64bits(s[i]))
			left--
			if 4*hit > 3*probed {
				return 0
			}
			if 4*(hit+left) <= 3*probed {
				break
			}
		}
	}
	// A dedicated count, not popcount(presence(…)): the plain sum is a
	// third faster than building masks it would throw away.
	nnz := 0
	for len(s) > 0 {
		blk := s[:min(256, len(s))]
		s = s[len(blk):]
		i := 0
		for ; i+4 <= len(blk); i += 4 {
			nnz += nonZero(math.Float64bits(blk[i])) + nonZero(math.Float64bits(blk[i+1])) +
				nonZero(math.Float64bits(blk[i+2])) + nonZero(math.Float64bits(blk[i+3]))
		}
		for ; i < len(blk); i++ {
			nnz += nonZero(math.Float64bits(blk[i]))
		}
		if nnz > limit {
			return 0
		}
	}
	return 8 * (words + nnz)
}

// probeCannotFire reports whether the scan's probe is sure not to call
// the range dense: even if every candidate at a probed element were
// non-zero, fewer than ¾ of the probed elements would be. It stops as
// soon as the remaining probes cannot change the answer.
func probeCannotFire(cand []uint64, bit, n int) bool {
	if n < probeMin {
		return true
	}
	probed := (n + probeStride - 1) / probeStride
	hit, left := 0, probed
	for i := 0; i < n; i += probeStride {
		b := bit + i
		hit += int(cand[b>>6] >> uint(b&63) & 1)
		left--
		if 4*hit > 3*probed {
			return false
		}
		if 4*(hit+left) <= 3*probed {
			return true
		}
	}
	return true
}

// BitsAt returns the k ≤ 64 bits of sup starting at bit b, bit b in bit 0.
func BitsAt(sup []uint64, b, k int) uint64 {
	q, r := b>>6, uint(b&63)
	m := sup[q] >> r
	if r != 0 && int(r)+k > 64 {
		m |= sup[q+1] << (64 - r)
	}
	if k < 64 {
		m &= 1<<uint(k) - 1
	}
	return m
}

// candCount is the popcount of sup's bits [b, b+n).
func candCount(sup []uint64, b, n int) int {
	c := 0
	for w := 0; 64*w < n; w++ {
		c += bits.OnesCount64(BitsAt(sup, b+64*w, min(64, n-64*w)))
	}
	return c
}

// EncodePackedF64 appends the packed form of v[off:off+n] to dst, which
// must have PackedSizeF64(v, off, n, cand, bit) bytes of spare capacity.
// Candidate bits that hold at most the limit are gathered from;
// otherwise every element is tested. The bytes are the same either way.
func EncodePackedF64(dst []byte, v []float64, off, n int, cand []uint64, bit int) []byte {
	return encodePackedF64(dst, v, off, n, cand, bit, false)
}

// TakePackedF64 is EncodePackedF64 for a range its caller is done with:
// the same bytes, and v[off:off+n] left all +0.0 — the candidates' pass
// writes +0.0 over each element it reads (a clear bit already promises
// +0.0), the full test clears the range after.
func TakePackedF64(dst []byte, v []float64, off, n int, cand []uint64, bit int) []byte {
	return encodePackedF64(dst, v, off, n, cand, bit, true)
}

func encodePackedF64(dst []byte, v []float64, off, n int, cand []uint64, bit int, take bool) []byte {
	s := v[off : off+n]
	words := PackedWords(n)
	bm := len(dst)
	vo := bm + 8*words
	dst = dst[:cap(dst)]
	if cand != nil && candCount(cand, bit, n) <= n/packThreshold-words {
		for w := 0; w < words; w++ {
			blk := s[64*w : min(64*w+64, n)]
			// Only the candidates are read, and a candidate that holds +0.0
			// stays out of the mask (−0.0 and NaN payloads are set bits).
			var m uint64
			for c := BitsAt(cand, bit+64*w, len(blk)); c != 0; c &= c - 1 {
				j := bits.TrailingZeros64(c)
				x := math.Float64bits(blk[j])
				if take {
					blk[j] = 0
				}
				if x != 0 {
					m |= 1 << uint(j)
					binary.LittleEndian.PutUint64(dst[vo:], x)
					vo += 8
				}
			}
			binary.LittleEndian.PutUint64(dst[bm+8*w:], m)
		}
		return dst[:vo]
	}
	for w := 0; w < words; w++ {
		blk := s[64*w : min(64*w+64, n)]
		// The mask is built branch-free and the values gathered by walking
		// its bits: a branch per element mispredicts at exactly the
		// mid-range densities where packing is a close call.
		m := presence(blk)
		binary.LittleEndian.PutUint64(dst[bm+8*w:], m)
		for ; m != 0; m &= m - 1 {
			binary.LittleEndian.PutUint64(dst[vo:], math.Float64bits(blk[bits.TrailingZeros64(m)]))
			vo += 8
		}
	}
	if take {
		clear(s)
	}
	return dst[:vo]
}

// presence is the bitmap word of a block of at most 64 elements, eight
// elements per step at constant shifts.
func presence(blk []float64) uint64 {
	var m uint64
	g := 0
	for ; 8*g+8 <= len(blk); g++ {
		q := blk[8*g : 8*g+8 : 8*g+8]
		m |= uint64(nonZero(math.Float64bits(q[0]))|nonZero(math.Float64bits(q[1]))<<1|
			nonZero(math.Float64bits(q[2]))<<2|nonZero(math.Float64bits(q[3]))<<3|
			nonZero(math.Float64bits(q[4]))<<4|nonZero(math.Float64bits(q[5]))<<5|
			nonZero(math.Float64bits(q[6]))<<6|nonZero(math.Float64bits(q[7]))<<7) << uint(8*g)
	}
	for j := 8 * g; j < len(blk); j++ {
		m |= uint64(nonZero(math.Float64bits(blk[j]))) << uint(j)
	}
	return m
}

// setCount is the number of set bits in a bitmap of whole words.
func setCount(bitmap []byte) int {
	set := 0
	for w := 0; 8*w < len(bitmap); w++ {
		set += bits.OnesCount64(binary.LittleEndian.Uint64(bitmap[8*w:]))
	}
	return set
}

// packedBody validates a packed payload for an n-element range landing
// at [off, off+n) of a seg-element destination and splits it into bitmap
// and value bytes. It reads the whole bitmap, so a caller that gets a nil
// error may store through every set bit without a further bounds check.
func packedBody(payload []byte, off, n, seg int) (bitmap, vals []byte, err error) {
	if off < 0 || n < 0 || off+n > seg {
		return nil, nil, fmt.Errorf("%w: range [%d,%d) outside a destination of %d elems", ErrMalformedPacked, off, off+n, seg)
	}
	words := PackedWords(n)
	if len(payload) < 8*words || (len(payload)-8*words)%8 != 0 {
		return nil, nil, fmt.Errorf("%w: %d payload bytes cannot hold a %d-word bitmap plus whole values", ErrMalformedPacked, len(payload), words)
	}
	bitmap, vals = payload[:8*words], payload[8*words:]
	if set := setCount(bitmap); set != len(vals)/8 {
		return nil, nil, fmt.Errorf("%w: bitmap marks %d elements, %d values follow", ErrMalformedPacked, set, len(vals)/8)
	}
	if tail := n % 64; tail != 0 && binary.LittleEndian.Uint64(bitmap[8*(words-1):])>>uint(tail) != 0 {
		return nil, nil, fmt.Errorf("%w: bits set past element %d", ErrMalformedPacked, n)
	}
	return bitmap, vals, nil
}

// DecodeReducePackedF64 is the packed fused decode-reduce: it walks the
// set bits and adds each value into its element of acc[off:off+n], cost
// ∝ non-zeros. The skipped elements are the ones a dense pass would have
// added +0.0 to.
func DecodeReducePackedF64(acc []float64, off, n int, payload []byte) error {
	bitmap, vals, err := packedBody(payload, off, n, len(acc))
	if err != nil {
		return err
	}
	k := 0
	for w := 0; 8*w < len(bitmap); w++ {
		dst := acc[off+64*w:]
		for m := binary.LittleEndian.Uint64(bitmap[8*w:]); m != 0; m &= m - 1 {
			dst[bits.TrailingZeros64(m)] += Float64At(vals, k)
			k += 8
		}
	}
	return nil
}

// DecodeReduceF64 adds the []float64 of a tagged tag 7 frame into acc
// without decoding it: a packed frame ∝ non-zeros, a dense one from its
// bytes. acc must be a sum from +0.0, which never holds −0.0, so the
// +0.0 additions a packed frame skips change no bit. A frame Decode
// refuses, or not a []float64 of len(acc) elements, is an error, with
// acc untouched.
func DecodeReduceF64(acc []float64, src []byte) error {
	if len(src) < 4 || binary.LittleEndian.Uint32(src) != tagF64Slice {
		return fmt.Errorf("serde: not a []float64 frame")
	}
	n, packed, body, err := f64Payload(src[4:])
	switch {
	case err != nil:
		return err
	case n != len(acc):
		return fmt.Errorf("serde: a %d-element []float64 cannot be added into %d elements", n, len(acc))
	case packed:
		return DecodeReducePackedF64(acc, 0, n, body)
	}
	for i := range acc {
		acc[i] += Float64At(body, 8*i)
	}
	return nil
}

// DecodePackedF64 is the assembly form: it sets the marked elements of
// dst[off:off+n], a range that is zeroed already; the unmarked ones are
// left alone.
func DecodePackedF64(dst []float64, off, n int, payload []byte) error {
	bitmap, vals, err := packedBody(payload, off, n, len(dst))
	if err != nil {
		return err
	}
	setPacked(dst[off:], bitmap, vals)
	return nil
}

// setPacked stores the values of a validated packed body through its
// set bits into dst.
func setPacked(dst []float64, bitmap, vals []byte) {
	k := 0
	for w := 0; 8*w < len(bitmap); w++ {
		out := dst[64*w:]
		for m := binary.LittleEndian.Uint64(bitmap[8*w:]); m != 0; m &= m - 1 {
			out[bits.TrailingZeros64(m)] = Float64At(vals, k)
			k += 8
		}
	}
}
