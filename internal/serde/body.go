package serde

// The packed form held in memory (DESIGN.md §11 and §18): a compact
// aggregator's ring segment is a Body from the fold to its owner's
// gather frame. A send copies it into the wire, and a receive merges
// the incoming chunk into it in one ordered pass; nothing expands it to
// its dense length unless it passes ½ of its elements.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Body is an N-element []float64 range. Packed (Dense false), Bits marks
// each element whose bit pattern is not +0.0 (PackedWords(N) words, no
// bit past N) and Vals holds those elements in bit order — the payload
// of the range's packed form, word for word, so a send copies it and
// scans nothing. A +0.0 never enters Vals, whether a fold or a sum that
// cancels made it. Dense, Vals holds all N elements: a body densifies
// once, when a merge may leave more values than the packed form holds
// (the ½ rule) or a dense chunk arrives, and stays dense.
//
// A merge (MergePacked) takes a chunk train in element order, writes
// the sum into the spare buffers and swaps them in after the last
// chunk; a recycled Body keeps its buffers and allocates nothing at
// steady state.
type Body struct {
	N     int
	Dense bool
	Bits  []uint64
	Vals  []float64

	sumBits []uint64
	sumVals []float64
	at, k   int       // elements merged so far, values of Vals read so far
	packed  []float64 // a dense body's packed values buffer, for its next Load
}

// packLimit is the most values an n-element range holds and still packs
// (PackedSizeF64's limit).
func packLimit(n int) int { return n/packThreshold - PackedWords(n) }

// denseVals holds the dense values of bodies that went dense, from one
// body's next Load to another's densify: only the segments past ½ hold a
// segment-sized buffer, however the bodies are recycled. A channel, not
// a sync.Pool, for the reason of core's free lists.
var denseVals = make(chan []float64, 16)

// Load makes b the packed body of the n elements from bit lo of an
// aggregator held compact: vals holds its values at sup's set bits from
// bit lo on, in bit order, and every other element is +0.0. A +0.0 value
// stays out of the body; a body past the ½ rule is made dense.
func (b *Body) Load(n int, sup []uint64, lo int, vals []float64) {
	if b.Dense {
		select {
		case denseVals <- b.Vals:
		default:
		}
		b.Vals, b.packed = b.packed, nil
	}
	b.N, b.Dense, b.at = n, false, 0
	if words := PackedWords(n); cap(b.Bits) < words {
		b.Bits = make([]uint64, words)
	} else {
		b.Bits = b.Bits[:words]
	}
	c := 0
	for w := range b.Bits {
		b.Bits[w] = BitsAt(sup, lo+64*w, min(64, n-64*w))
		c += bits.OnesCount64(b.Bits[w])
	}
	b.Vals = append(b.Vals[:0], vals[:c]...)
	z := 0
	for _, x := range b.Vals {
		z |= 1 - nonZero(math.Float64bits(x))
	}
	if z != 0 { // a fold can leave +0.0 at a set bit of its support
		all, o := b.Vals, 0
		b.Vals = b.Vals[:0]
		for w, m := range b.Bits {
			c := bits.OnesCount64(m)
			b.Vals, b.Bits[w] = dropZeros(append(b.Vals, all[o:o+c]...), len(b.Vals), m)
			o += c
		}
	}
	if len(b.Vals) > packLimit(n) {
		b.densify()
	}
}

// densify writes b's values out to its N elements, in a buffer from
// denseVals — during a merge, the sum below the element it has reached
// and b's values from there on; the packed values' buffer waits for the
// next Load.
func (b *Body) densify() {
	var d []float64
	select {
	case d = <-denseVals:
	default:
	}
	if cap(d) < b.N {
		d = make([]float64, b.N)
	}
	d = d[:b.N]
	clear(d)
	k := 0
	if b.at > 0 {
		ScatterF64(d, b.sumBits, b.sumVals)
		k = b.k
	}
	for w := b.at >> 6; w < len(b.Bits); w++ {
		m := b.Bits[w]
		if w == b.at>>6 {
			m &^= 1<<uint(b.at&63) - 1
		}
		for ; m != 0; m &= m - 1 {
			d[64*w+bits.TrailingZeros64(m)] = b.Vals[k]
			k++
		}
	}
	b.packed, b.Vals, b.Dense, b.at = b.Vals, d, true, 0
}

// Densify makes b dense, if it is not yet, and returns its N elements.
func (b *Body) Densify() []float64 {
	if !b.Dense {
		b.densify()
	}
	return b.Vals
}

// ScatterF64 stores vals, one per set bit of set in bit order, at
// those bits' elements of dst; the other elements are not touched.
func ScatterF64(dst []float64, set []uint64, vals []float64) {
	k := 0
	for w, m := range set {
		out := dst[64*w:]
		for ; m != 0; m &= m - 1 {
			out[bits.TrailingZeros64(m)] = vals[k]
			k++
		}
	}
}

// PackedSize is PackedSizeF64 of elements [off, off+n) of b: the packed
// payload size when the range packs, else 0. A packed body reads it
// from its bitmap, which is the range's exact presence, so the probe
// and the count decide as the scan of the dense range would.
func (b *Body) PackedSize(off, n int) int {
	if b.Dense {
		return PackedSizeF64(b.Vals, off, n, nil, 0)
	}
	if _, c := b.valsAt(off, n); c <= packLimit(n) && probeCannotFire(b.Bits, off, n) {
		return 8 * (PackedWords(n) + c)
	}
	return 0
}

// AppendPacked appends the packed form of elements [off, off+n) of b to
// dst, which has PackedSize(off, n) bytes of spare capacity: a packed
// body's bitmap bits and values, copied.
func (b *Body) AppendPacked(dst []byte, off, n int) []byte {
	if b.Dense {
		return EncodePackedF64(dst, b.Vals, off, n, nil, 0)
	}
	for w := 0; 64*w < n; w++ {
		dst = binary.LittleEndian.AppendUint64(dst, BitsAt(b.Bits, off+64*w, min(64, n-64*w)))
	}
	k, c := b.valsAt(off, n)
	return AppendFloat64s(dst, b.Vals[k:k+c])
}

// valsAt is the index in Vals of element off's value, or of the first
// after it, and the count of values in [off, off+n), of a packed body.
func (b *Body) valsAt(off, n int) (k, c int) {
	if off == 0 && n == b.N {
		return 0, len(b.Vals)
	}
	return candCount(b.Bits, 0, off), candCount(b.Bits, off, n)
}

// AppendDense appends elements [off, off+n) of b to dst as raw 8-byte
// words.
func (b *Body) AppendDense(dst []byte, off, n int) []byte {
	if b.Dense {
		return AppendFloat64s(dst, b.Vals[off:off+n])
	}
	o := len(dst)
	dst = append(dst, make([]byte, 8*n)...)
	k, _ := b.valsAt(off, n)
	for w := 0; 64*w < n; w++ {
		for m := BitsAt(b.Bits, off+64*w, min(64, n-64*w)); m != 0; m &= m - 1 {
			binary.LittleEndian.PutUint64(dst[o+8*(64*w+bits.TrailingZeros64(m)):], math.Float64bits(b.Vals[k]))
			k++
		}
	}
	return dst
}

// MergePacked adds the n-element packed payload into elements [off,
// off+n) of b. Into a packed body it merges 64 elements at a time: b's
// values are laid out at the union of the two bitmaps, the payload's
// values are added into them as addPacked adds them into the dense
// range — onto +0.0 where b holds none, so an incoming −0.0 alone
// becomes +0.0 — and every +0.0 sum is left out. The payload is
// validated whole first, and a train must arrive in element order;
// either refusal leaves b's values as they were.
func (b *Body) MergePacked(off, n int, payload []byte) error {
	bitmap, vals, err := packedBody(payload, off, n, b.N)
	if err != nil {
		return err
	}
	most := 0 // the most values the sum can hold
	if !b.Dense {
		if err := b.begin(off); err != nil {
			return err
		}
		// Those merged so far, the union in this chunk, b's after it.
		most = len(b.sumVals) + len(b.Vals) - b.k
		for w := 0; 64*w < n; w++ {
			mine := BitsAt(b.Bits, off+64*w, min(64, n-64*w))
			most += bits.OnesCount64(mine|binary.LittleEndian.Uint64(bitmap[8*w:])) - bits.OnesCount64(mine)
		}
		if most > packLimit(b.N) {
			b.densify() // the sum may pass ½: it is made in place
		}
	}
	if b.Dense {
		addPacked(b.Vals[off:], bitmap, vals)
		return nil
	}
	out := slices.Grow(b.sumVals, most-len(b.sumVals))
	var zero float64 // +0.0, the dense range where b holds no value
	k, i := b.k, 0
	for w := 0; 64*w < n; w++ {
		mine := BitsAt(b.Bits, off+64*w, min(64, n-64*w))
		c := bits.OnesCount64(mine)
		in := binary.LittleEndian.Uint64(bitmap[8*w:])
		u, o := mine|in, len(out)
		switch {
		case in == 0:
			out = append(out, b.Vals[k:k+c]...)
			k += c
			OrBitsAt(b.sumBits, off+64*w, mine)
			continue
		case mine == 0: // incoming only: the sums are in order
			z := 0
			for m := in; m != 0; m &= m - 1 {
				x := zero + Float64At(vals, i)
				out = append(out, x)
				z |= 1 - nonZero(math.Float64bits(x))
				i += 8
			}
			if z != 0 {
				out, u = dropZeros(out, o, u)
			}
			OrBitsAt(b.sumBits, off+64*w, u)
			continue
		}
		out = out[:o+bits.OnesCount64(u)]
		sum := out[o:]
		for m, v := mine, b.Vals[k:k+c]; m != 0; m &= m - 1 {
			sum[bits.OnesCount64(u&(m&-m-1))] = v[0]
			v = v[1:]
		}
		k += c
		z := 0 // b's values are not +0.0: only a sum can be
		for m := in; m != 0; m &= m - 1 {
			p := bits.OnesCount64(u & (m&-m - 1))
			if mine&(m&-m) == 0 {
				x := zero + Float64At(vals, i)
				sum[p] = x
				z |= 1 - nonZero(math.Float64bits(x))
			} else {
				sum[p] += Float64At(vals, i)
				z |= 1 - nonZero(math.Float64bits(sum[p]))
			}
			i += 8
		}
		if z != 0 {
			out, u = dropZeros(out, o, u)
		}
		OrBitsAt(b.sumBits, off+64*w, u)
	}
	b.k, b.sumVals = k, out
	b.end(off + n)
	return nil
}

// MergeDense adds a raw-word payload into elements [off, off+len/8) of
// b in place, as the dense chunk kernel adds it; a packed body densifies
// first (the chunk alone is past the ½ rule, or the probe's call), a
// merge in progress with it.
func (b *Body) MergeDense(off int, payload []byte) error {
	n := len(payload) / 8
	if len(payload)%8 != 0 || off < 0 || off+n > b.N {
		return fmt.Errorf("serde: a %d-byte dense payload at element %d of a %d-element body", len(payload), off, b.N)
	}
	if !b.Dense {
		if err := b.begin(off); err != nil {
			return err
		}
		b.densify()
	}
	dst := b.Vals[off : off+n]
	for j := range dst {
		dst[j] += Float64At(payload, 8*j)
	}
	return nil
}

// dropZeros removes the +0.0 elements from out[o:], the values at m's
// bits in bit order, and returns out and the bits it kept.
func dropZeros(out []float64, o int, m uint64) ([]float64, uint64) {
	kept, n := m, o
	for ; m != 0; m &= m - 1 {
		if x := out[o]; math.Float64bits(x) != 0 {
			out[n] = x
			n++
		} else {
			kept &^= m & -m
		}
		o++
	}
	return out[:n], kept
}

// begin readies a packed body for the chunk at element off: the first
// chunk starts a merge, a later one must start where the last one ended.
func (b *Body) begin(off int) error {
	if off != b.at {
		return fmt.Errorf("%w: a chunk at element %d of a merge that has reached %d", ErrMalformedPacked, off, b.at)
	}
	if off == 0 {
		words := PackedWords(b.N)
		if cap(b.sumBits) < words {
			b.sumBits = make([]uint64, words)
		}
		b.sumBits = b.sumBits[:words]
		clear(b.sumBits)
		b.sumVals, b.k = b.sumVals[:0], 0
	}
	return nil
}

// end records a merge's progress to element at; at N the sum becomes
// b (MergePacked densified b before a sum past the ½ rule).
func (b *Body) end(at int) {
	if b.at = at; at < b.N {
		return
	}
	b.Bits, b.sumBits = b.sumBits, b.Bits
	b.Vals, b.sumVals = b.sumVals, b.Vals
	b.at = 0
}

// OrBitsAt ORs m into sup at bit b. The bits of m past the ones sup
// covers must be clear.
func OrBitsAt(sup []uint64, b int, m uint64) {
	q, r := b>>6, uint(b&63)
	sup[q] |= m << r
	if r != 0 && m>>(64-r) != 0 {
		sup[q+1] |= m >> (64 - r)
	}
}
