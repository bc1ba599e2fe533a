package collective

// The zero-suppressed ("packed") chunk form (DESIGN.md §11).
//
// A dense chunk ships every element word; most of a sparse gradient's
// words are zero. The packed form of an n-element chunk is
//
//	[8B × ceil(n/64)]  presence bitmap, little-endian words; bit i%64 of
//	                   word i/64 is set iff element i is non-zero
//	[8B × popcount]    the non-zero element words, in element order
//
// where non-zero means *bit pattern* ≠ 0, so −0.0, NaN payloads and
// subnormals travel as themselves: the form is value-exact. The encoder
// picks it per chunk, after one counting pass, only when it is at most
// half the dense bytes (packThreshold); otherwise the chunk goes out
// dense. Nothing selects it and nothing can switch it off — it is a
// property of the data. When the caller knows the chunk's support
// (support.go) and it is small enough to settle the choice, the counting
// pass and the mask read only the support's elements.
//
// Suppressing a zero is sound only for ops whose Reduce is IEEE addition
// and whose segments start from +0.0: x + (+0.0) == x bit for bit for
// every x a sum from +0.0 can hold, so skipping the add changes nothing.
// (The one corner: a resident −0.0 plus a suppressed +0.0 stays −0.0
// where the dense add would give +0.0 — unreachable from a +0.0 Zero,
// since a sum only produces −0.0 from two −0.0 addends.) That is why
// the form is an ops hook (Ops.Packed) and only F64Ops supplies it: ops
// without it never send a packed frame and refuse one they are sent.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrMalformedChunk classifies a chunk that fails validation: a form
// byte that is neither dense nor packed, or a packed payload with a
// bitmap of the wrong length, a popcount that disagrees with the value
// count, bits set past the chunk's last element, or a truncated value
// array. Every decoder validates the whole payload before its first
// store, so a malformed chunk never leaves a partial write behind.
var ErrMalformedChunk = errors.New("collective: malformed chunk")

// packThreshold: a chunk packs only when its packed payload is at most
// dense/packThreshold bytes. At ½ the scatter-shaped packed kernels are
// still ahead of the streaming dense ones (EXPERIMENTS.md "PR 17" micro
// rows), and a chunk near the boundary saves little either way.
const packThreshold = 2

// PackedWords is the bitmap length, in 8-byte words, of an n-element
// packed chunk.
func PackedWords(n int) int { return (n + 63) / 64 }

// CanPack reports whether ops supplies the packed chunk form on top of a
// fixed-stride chunk fast path: any element range of a segment may then
// travel packed instead of as ChunkStride × elements raw bytes.
func (ops Ops[V]) CanPack() bool {
	return ops.Packed != nil && ops.ChunkStride() > 0
}

// nonZero is 1 when the word has any bit set, branch-free.
func nonZero(b uint64) int { return int((b | -b) >> 63) }

// A large chunk is probed before it is counted: every probeStride-th
// element (an odd stride, so no power-of-two layout hides from it), and
// when more than ¾ of those are non-zero the chunk is called dense at
// 1/17 of a pass. Calling a chunk dense is always safe — it goes out as
// it always did — and a chunk that dense under the probe yet at most
// half non-zero overall would need its zeros to dodge the stride.
const (
	probeStride = 17
	probeMin    = 1024
)

// packedSizeF64 sizes the packed form of v[off:off+n]: the packed
// payload size when packing wins by packThreshold, else 0.
//
// With candidate bits (cand non-nil: bit bit+i of cand set for every
// element off+i that may be non-zero) that hold at most the limit, the
// chunk packs for certain, and the size is an upper bound read from the
// bitmap alone, 8·(words + candidates) — the elements are not read. The
// only other call the scan could make is the probe's, so that is checked
// on the candidates too; a chunk they do not settle is scanned.
//
// The scan stops as soon as the non-zero count rules packing out — at
// once for a plainly dense chunk (the probe), after about half a pass
// for one near the threshold.
func packedSizeF64(v []float64, off, n int, cand []uint64, bit int) int {
	words := PackedWords(n)
	limit := n/packThreshold - words // most non-zero words a winning chunk holds
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
		probed, hit := 0, 0
		for i := 0; i < n; i += probeStride {
			hit += nonZero(math.Float64bits(s[i]))
			probed++
		}
		if 4*hit > 3*probed {
			return 0
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
// the chunk dense: even if every candidate at a probed element were
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

// encodePackedF64 appends the packed form of v[off:off+n] to dst, which
// must have packedSizeF64(v, off, n, cand, bit) bytes of spare capacity
// (the caller's pooled draw). Candidate bits that hold at most the limit
// are gathered from; otherwise every element is tested. The bytes are
// the same either way.
func encodePackedF64(dst []byte, v []float64, off, n int, cand []uint64, bit int) []byte {
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
			for c := bitsAt(cand, bit+64*w, len(blk)); c != 0; c &= c - 1 {
				j := bits.TrailingZeros64(c)
				if x := math.Float64bits(blk[j]); x != 0 {
					m |= 1 << uint(j)
					putUint64(dst[vo:], x)
					vo += 8
				}
			}
			putUint64(dst[bm+8*w:], m)
		}
		return dst[:vo]
	}
	for w := 0; w < words; w++ {
		blk := s[64*w : min(64*w+64, n)]
		// The mask is built branch-free and the values gathered by walking
		// its bits: a branch per element mispredicts at exactly the
		// mid-range densities where packing is a close call.
		m := presence(blk)
		putUint64(dst[bm+8*w:], m)
		for ; m != 0; m &= m - 1 {
			putFloat64(dst[vo:], blk[bits.TrailingZeros64(m)])
			vo += 8
		}
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

// packedBody validates a packed payload for an n-element chunk landing
// at [off, off+n) of a seg-element segment and splits it into bitmap and
// value bytes. It reads the whole bitmap, so a caller that gets a nil
// error may store through every set bit without a further bounds check.
func packedBody(payload []byte, off, n, seg int) (bitmap, vals []byte, err error) {
	if off < 0 || n < 0 || off+n > seg {
		return nil, nil, fmt.Errorf("%w: chunk [%d,%d) outside segment of %d elems", ErrMalformedChunk, off, off+n, seg)
	}
	words := PackedWords(n)
	if len(payload) < 8*words || (len(payload)-8*words)%8 != 0 {
		return nil, nil, fmt.Errorf("%w: %d payload bytes cannot hold a %d-word bitmap plus whole values", ErrMalformedChunk, len(payload), words)
	}
	bitmap, vals = payload[:8*words], payload[8*words:]
	set := 0
	for w := 0; w < words; w++ {
		set += bits.OnesCount64(uint64At(bitmap, 8*w))
	}
	if set != len(vals)/8 {
		return nil, nil, fmt.Errorf("%w: bitmap marks %d elements, %d values follow", ErrMalformedChunk, set, len(vals)/8)
	}
	if tail := n % 64; tail != 0 && uint64At(bitmap, 8*(words-1))>>uint(tail) != 0 {
		return nil, nil, fmt.Errorf("%w: bits set past element %d", ErrMalformedChunk, n)
	}
	return bitmap, vals, nil
}

// decodeReducePackedF64 is the packed fused decode-reduce: it walks the
// set bits and adds each value into its element, cost ∝ non-zeros. The
// skipped elements are the ones a dense pass would have added +0.0 to.
func decodeReducePackedF64(acc []float64, off, n int, payload []byte) error {
	bitmap, vals, err := packedBody(payload, off, n, len(acc))
	if err != nil {
		return err
	}
	k := 0
	for w := 0; 8*w < len(bitmap); w++ {
		dst := acc[off+64*w:]
		for m := uint64At(bitmap, 8*w); m != 0; m &= m - 1 {
			dst[bits.TrailingZeros64(m)] += float64At(vals, k)
			k += 8
		}
	}
	return nil
}

// decodePackedF64 is the assembly form (allgather receive, driver
// gather): set the marked elements of a range MakeSegment returned
// zeroed; the unmarked ones are +0.0 already.
func decodePackedF64(dst []float64, off, n int, payload []byte) error {
	bitmap, vals, err := packedBody(payload, off, n, len(dst))
	if err != nil {
		return err
	}
	k := 0
	for w := 0; 8*w < len(bitmap); w++ {
		out := dst[off+64*w:]
		for m := uint64At(bitmap, 8*w); m != 0; m &= m - 1 {
			out[bits.TrailingZeros64(m)] = float64At(vals, k)
			k += 8
		}
	}
	return nil
}
