package serde

// The driver's reader of a reduced []float64 aggregate that is still in
// its frames (DESIGN.md §18): the tree's last round and the IMM gather
// (tag 7 addends), the split gather's owned segments and allreduce's
// rank-0 copy (ranges laid end to end). Reading it a tile at a time lets
// a caller that consumes the aggregate elementwise — the optimizer's
// update — make one pass over the frames and write nothing
// aggregate-sized but its own result.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// tileElems is the tile: 16 KiB, small enough to stay in L1/L2 beside
// the frames' current words and the caller's own streams (tiles of 512
// to 8 192 elements read alike on the wide step).
const tileElems = 2048

// F64Frames is a []float64 aggregate the driver has not assembled: the
// frames it came home in, validated whole before the first element is
// read, then read tile by tile. It has one of two shapes.
//
//   - Addends (SumF64): tag 7 frames of one length. Element i is
//     +0.0 + f₀[i] + f₁[i] + … in frame order, the bits DecodeReduceF64
//     leaves when the frames are added in that order into a vector of
//     +0.0 (a packed frame skips its +0.0 elements, which changes no bit
//     of a sum from +0.0).
//   - Ranges laid end to end (ConcatF64, then Append*): element i is the
//     word its range holds, bits and all — what decoding each range into
//     its slot gives.
//
// The frames must stay unchanged while it reads them, and nothing of
// them is kept once Release returns.
type F64Frames struct {
	n     int
	sum   bool
	parts []f64Part
	tile  int // elements per tile: tileElems, smaller in tests
	buf   *[tileElems]float64
}

// f64Part is one frame (an addend) or one range, validated: it covers
// elements [off, off+n); a packed part holds its bitmap and the values
// of its set bits, a dense one its n words in vals. pos and k are a
// packed part's read cursor: its next element, and the offset in vals
// of the first value at or after it.
type f64Part struct {
	off, n int
	bitmap []byte
	vals   []byte
	pos, k int
}

// framesFree recycles readers with their tile buffers: a bounded
// channel, not a sync.Pool, so a reader is reused whatever the GC or
// the race detector does. Four covers a driver finishing a few
// aggregations at once; a reader beyond that is allocated and dropped.
var framesFree = make(chan *F64Frames, 4)

func getFrames(sum bool) *F64Frames {
	var f *F64Frames
	select {
	case f = <-framesFree:
	default:
		f = &F64Frames{buf: new([tileElems]float64)}
	}
	f.n, f.sum, f.tile = 0, sum, tileElems
	return f
}

// Release hands f back for reuse; f must not be used afterwards.
func (f *F64Frames) Release() {
	clear(f.parts)
	f.parts = f.parts[:0]
	select {
	case framesFree <- f:
	default:
	}
}

// SumF64 is the reader of the element-wise sum of tag 7 frames (tagged,
// as EncodeF64 writes them), all of one length. Every frame is validated
// before it returns; a refused set is an error and no reader.
func SumF64(frames [][]byte) (*F64Frames, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("serde: no []float64 frame to sum")
	}
	f := getFrames(true)
	for i, frame := range frames {
		if err := f.AppendFrame(frame); err != nil {
			f.Release()
			return nil, fmt.Errorf("serde: frame %d of %d: %w", i, len(frames), err)
		}
	}
	return f, nil
}

// ConcatF64 is an empty reader of ranges laid end to end, which
// AppendRaw, AppendPacked and AppendFrame extend.
func ConcatF64() *F64Frames { return getFrames(false) }

// AppendRaw adds a range of little-endian float64 words.
func (f *F64Frames) AppendRaw(body []byte) error {
	if len(body)%8 != 0 {
		return fmt.Errorf("serde: a %d-byte range is not whole float64 words", len(body))
	}
	return f.add(f64Part{n: len(body) / 8, vals: body})
}

// AppendPacked adds an n-element range in the packed form.
func (f *F64Frames) AppendPacked(n int, payload []byte) error {
	bitmap, vals, err := packedBody(payload, 0, n, n)
	if err != nil {
		return err
	}
	return f.add(f64Part{n: n, bitmap: bitmap, vals: vals})
}

// AppendFrame adds a tagged tag 7 frame: a range of a ConcatF64 reader,
// an addend of SumF64's.
func (f *F64Frames) AppendFrame(frame []byte) error {
	if len(frame) < 4 || binary.LittleEndian.Uint32(frame) != tagF64Slice {
		return fmt.Errorf("serde: not a []float64 frame")
	}
	n, packed, body, err := f64Payload(frame[4:])
	if err != nil {
		return err
	}
	p := f64Part{n: n, vals: body}
	if packed {
		words := PackedWords(n)
		p.bitmap, p.vals = body[:8*words], body[8*words:]
	}
	return f.add(p)
}

func (f *F64Frames) add(p f64Part) error {
	switch {
	case !f.sum:
		p.off = f.n
		f.n += p.n
	case len(f.parts) == 0:
		f.n = p.n
	case p.n != f.n:
		return fmt.Errorf("serde: a %d-element []float64 cannot be added to %d elements", p.n, f.n)
	}
	f.parts = append(f.parts, p)
	return nil
}

// Len is the aggregate's element count.
func (f *F64Frames) Len() int { return f.n }

// Read calls fn with the aggregate's elements [lo, hi), one tile at a
// time, in order: tile holds elements off … off+len(tile)−1. The tile is
// f's buffer, overwritten by the next call. A range may be read any
// number of times, in any order; reading forward from where the last
// read stopped costs no seek.
func (f *F64Frames) Read(lo, hi int, fn func(off int, tile []float64)) {
	if lo < 0 || hi > f.n || lo > hi {
		panic(fmt.Sprintf("serde: read [%d,%d) of a %d-element aggregate", lo, hi, f.n))
	}
	buf := f.buf[:f.tile]
	for t0 := lo; t0 < hi; t0 += len(buf) {
		t := buf[:min(len(buf), hi-t0)]
		clear(t)
		t1 := t0 + len(t)
		for i := range f.parts {
			p := &f.parts[i]
			a, b := max(t0, p.off), min(t1, p.off+p.n)
			if a < b {
				p.read(t[a-t0:b-t0], a-p.off, b-p.off, f.sum)
			}
		}
		fn(t0, t)
	}
}

// Dense assembles the whole aggregate into a fresh vector.
func (f *F64Frames) Dense() []float64 {
	out := make([]float64, f.n)
	f.Read(0, f.n, func(off int, t []float64) { copy(out[off:], t) })
	return out
}

// read adds (add) or stores the part's elements [a, b), its own indices,
// into dst, dst[0] being element a.
func (p *f64Part) read(dst []float64, a, b int, add bool) {
	if p.bitmap == nil {
		src := p.vals[8*a : 8*b]
		switch {
		case add:
			AddWords(dst, src)
		case hostLittleEndian:
			copy(f64Bytes(dst), src)
		default:
			for j := range dst {
				dst[j] = Float64At(src, 8*j)
			}
		}
		return
	}
	p.seek(a)
	k, bitmap, vals := p.k, p.bitmap, p.vals
	for e := a; e < b; {
		var m uint64
		var out []float64
		if e&63 == 0 && b-e >= 64 {
			// A whole bitmap word: the common case, with constant bounds.
			m, out = binary.LittleEndian.Uint64(bitmap[e>>3:]), dst[e-a:][:64]
		} else {
			var width int
			m, width = p.word(e, b)
			out = dst[e-a:][:width]
		}
		if add {
			for ; m != 0; m &= m - 1 {
				out[bits.TrailingZeros64(m)&63] += Float64At(vals, k)
				k += 8
			}
		} else {
			for ; m != 0; m &= m - 1 {
				out[bits.TrailingZeros64(m)&63] = Float64At(vals, k)
				k += 8
			}
		}
		e += len(out)
	}
	p.pos, p.k = b, k
}

// word is the packed part's bitmap from element e up to the end of e's
// word or to end, whichever is first, element e in bit 0, and how many
// elements that is.
func (p *f64Part) word(e, end int) (uint64, int) {
	s := e & 63
	width := min(64-s, end-e)
	m := binary.LittleEndian.Uint64(p.bitmap[8*(e>>6):]) >> uint(s)
	if width < 64 {
		m &= 1<<uint(width) - 1
	}
	return m, width
}

// seek moves the packed part's cursor to element e.
func (p *f64Part) seek(e int) {
	if e < p.pos {
		p.pos, p.k = 0, 0
	}
	for p.pos < e {
		m, width := p.word(p.pos, e)
		p.k += 8 * bits.OnesCount64(m)
		p.pos += width
	}
}
