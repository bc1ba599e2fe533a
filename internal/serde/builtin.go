package serde

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Built-in codecs for the primitive and slice types that flow through
// the engine: task counters, aggregator arrays, broadcast values.

const (
	tagInt64     = 2
	tagFloat64   = 3
	tagString    = 4
	tagBool      = 5
	tagBytes     = 6
	tagF64Slice  = 7
	tagI64Slice  = 8
	tagInt       = 9
	tagF64Matrix = 10
)

func init() {
	registerBuiltin(tagInt64, int64(0), int64Codec{})
	registerBuiltin(tagFloat64, float64(0), float64Codec{})
	registerBuiltin(tagString, "", stringCodec{})
	registerBuiltin(tagBool, false, boolCodec{})
	registerBuiltin(tagBytes, []byte(nil), bytesCodec{})
	registerBuiltin(tagF64Slice, []float64(nil), f64SliceCodec{})
	registerBuiltin(tagI64Slice, []int64(nil), i64SliceCodec{})
	registerBuiltin(tagInt, int(0), intCodec{})
	registerBuiltin(tagF64Matrix, [][]float64(nil), f64MatrixCodec{})
}

type int64Codec struct{}

func (int64Codec) Encode(dst []byte, v any) ([]byte, error) {
	return appendUint64(dst, uint64(v.(int64))), nil
}

func (int64Codec) Decode(src []byte) (any, int, error) {
	if len(src) < 8 {
		return nil, 0, fmt.Errorf("serde: short int64")
	}
	return int64(binary.LittleEndian.Uint64(src)), 8, nil
}

type intCodec struct{}

func (intCodec) Encode(dst []byte, v any) ([]byte, error) {
	return appendUint64(dst, uint64(v.(int))), nil
}

func (intCodec) Decode(src []byte) (any, int, error) {
	if len(src) < 8 {
		return nil, 0, fmt.Errorf("serde: short int")
	}
	return int(binary.LittleEndian.Uint64(src)), 8, nil
}

type float64Codec struct{}

func (float64Codec) Encode(dst []byte, v any) ([]byte, error) {
	return AppendFloat64(dst, v.(float64)), nil
}

func (float64Codec) Decode(src []byte) (any, int, error) {
	if len(src) < 8 {
		return nil, 0, fmt.Errorf("serde: short float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src)), 8, nil
}

type stringCodec struct{}

func (stringCodec) Encode(dst []byte, v any) ([]byte, error) {
	s := v.(string)
	dst = appendUint32(dst, uint32(len(s)))
	return append(dst, s...), nil
}

func (stringCodec) Decode(src []byte) (any, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("serde: short string header")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if len(src) < 4+n {
		return nil, 0, fmt.Errorf("serde: short string body")
	}
	return string(src[4 : 4+n]), 4 + n, nil
}

type boolCodec struct{}

func (boolCodec) Encode(dst []byte, v any) ([]byte, error) {
	if v.(bool) {
		return append(dst, 1), nil
	}
	return append(dst, 0), nil
}

func (boolCodec) Decode(src []byte) (any, int, error) {
	if len(src) < 1 {
		return nil, 0, fmt.Errorf("serde: short bool")
	}
	return src[0] != 0, 1, nil
}

type bytesCodec struct{}

func (bytesCodec) Encode(dst []byte, v any) ([]byte, error) {
	b := v.([]byte)
	dst = appendUint32(dst, uint32(len(b)))
	return append(dst, b...), nil
}

func (bytesCodec) Decode(src []byte) (any, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("serde: short bytes header")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if len(src) < 4+n {
		return nil, 0, fmt.Errorf("serde: short bytes body")
	}
	out := make([]byte, n)
	copy(out, src[4:4+n])
	return out, 4 + n, nil
}

// f64SliceCodec is tag 7, the wire of every float vector that is not a
// ring chunk: a length word, then the elements in one of two forms,
// chosen from the data by the packed form's ½ rule (packed.go):
//
//	n uint32              | n × 8 B element words              dense
//	n | f64PackedBit uint32 | bitmap, ceil(n/64) × 8 B | non-zero words × 8 B
//
// A dense vector is settled by the probe, which reads one element in
// 17, and its bytes are the dense form's as they always were; one that
// packs is written once, at its exact size. Zero means bit pattern 0, so
// the round trip is bit-exact for every input and a decoded vector is
// the encoded one.
//
// Decode validates the whole payload before it allocates: a packed
// header for n elements must carry 8·ceil(n/64) bitmap bytes, so Decode
// allocates at most 64× its input.
type f64SliceCodec struct{}

// f64PackedBit marks a packed payload in a []float64's length word; n
// itself stays below it (transport.MaxFrameBytes is 1 GiB).
const f64PackedBit = 1 << 31

func (f64SliceCodec) Encode(dst []byte, v any) ([]byte, error) {
	return appendF64Slice(dst, nil, false, v.([]float64), nil)
}

// EncodeF64 is Encode(nil, s) with s's candidate bits (PackedSizeF64;
// nil: unknown), so a vector whose support settles the form is encoded
// reading only the support's elements. The bytes are Encode's. The frame
// is written into the empty buffer draw returns, called once with its
// size (a bound with candidate bits); a nil draw allocates it.
func EncodeF64(draw func(n int) []byte, s []float64, cand []uint64) ([]byte, error) {
	return appendF64Slice(nil, draw, true, s, cand)
}

// EncodeF64Support writes the tagged tag 7 frame of the n-element
// vector that holds vals at the set bits of sup below n, in bit order,
// and +0.0 everywhere else: the bytes EncodeF64(draw, v, sup) gives for
// that vector v, written from its support without v, into a buffer from
// draw, called once with a bound on its size (a nil draw allocates). vals must hold one
// value per set bit, and sup at least PackedWords(n) words. It declines
// (ok false, nothing drawn) when the support does not settle the packed
// form, where EncodeF64 would read the vector itself (PackedSizeF64).
func EncodeF64Support(draw func(n int) []byte, n int, sup []uint64, vals []float64) (frame []byte, ok bool) {
	if n <= 0 || n >= f64PackedBit {
		return nil, false
	}
	words, c := PackedWords(n), candCount(sup, 0, n)
	if c != len(vals) {
		panic(fmt.Sprintf("serde: %d values for a support of %d elements", len(vals), c))
	}
	if c > n/packThreshold-words || !probeCannotFire(sup, 0, n) {
		return nil, false
	}
	dst := reserve(nil, draw, 8+8*(words+c))
	dst = appendUint32(dst, tagF64Slice)
	dst = appendUint32(dst, uint32(n)|f64PackedBit)
	bm := len(dst)
	vo := bm + 8*words
	dst = dst[:cap(dst)]
	k := 0
	for w := 0; w < words; w++ {
		// As EncodePackedF64 from candidates: a +0.0 stays out of the mask.
		var m uint64
		for b := BitsAt(sup, 64*w, min(64, n-64*w)); b != 0; b &= b - 1 {
			if x := math.Float64bits(vals[k]); x != 0 {
				m |= 1 << uint(bits.TrailingZeros64(b))
				binary.LittleEndian.PutUint64(dst[vo:], x)
				vo += 8
			}
			k++
		}
		binary.LittleEndian.PutUint64(dst[bm+8*w:], m)
	}
	return dst[:vo], true
}

// appendF64Slice appends s's tag 7 payload to dst, or to draw's buffer
// when draw is set, led by the type tag when tagged, growing dst at most
// once — to the exact size, or with candidate bits to the bound they
// give.
func appendF64Slice(dst []byte, draw func(int) []byte, tagged bool, s []float64, cand []uint64) ([]byte, error) {
	n := len(s)
	if n >= f64PackedBit {
		return nil, fmt.Errorf("serde: []float64 of %d elements does not fit its length word", n)
	}
	word, body := uint32(n), 8*n
	if size := PackedSizeF64(s, 0, n, cand, 0); size > 0 {
		word, body = word|f64PackedBit, size
	}
	head := 4
	if tagged {
		head = 8
	}
	dst = reserve(dst, draw, head+body)
	if tagged {
		dst = appendUint32(dst, tagF64Slice)
	}
	dst = appendUint32(dst, word)
	if word&f64PackedBit != 0 {
		return EncodePackedF64(dst, s, 0, n, cand, 0), nil
	}
	return AppendFloat64s(dst, s), nil
}

func (f64SliceCodec) Decode(src []byte) (any, int, error) {
	n, packed, body, err := f64Payload(src)
	if err != nil {
		return nil, 0, err
	}
	out := make([]float64, n)
	switch {
	case packed:
		words := PackedWords(n)
		setPacked(out, body[:8*words], body[8*words:])
	case hostLittleEndian:
		copy(f64Bytes(out), body)
	default:
		for i := range out {
			out[i] = Float64At(body, 8*i)
		}
	}
	return out, 4 + len(body), nil
}

// f64Payload reads a tag 7 payload's length word and cuts its body, the
// bytes after the word that belong to it. A packed body is validated
// whole, once, before anything is allocated from it: the bitmap's
// length and tail bits, and a value for every set bit; its callers store
// through it without a further check.
func f64Payload(src []byte) (n int, packed bool, body []byte, err error) {
	if len(src) < 4 {
		return 0, false, nil, fmt.Errorf("serde: short []float64 header")
	}
	word := binary.LittleEndian.Uint32(src)
	n, packed, body = int(word&^f64PackedBit), word&f64PackedBit != 0, src[4:]
	if !packed {
		if n > len(body)/8 {
			return 0, false, nil, fmt.Errorf("serde: short []float64 body")
		}
		return n, false, body[:8*n], nil
	}
	words := PackedWords(n)
	if len(body) < 8*words {
		return 0, false, nil, fmt.Errorf("%w: %d elements need a %d-byte bitmap, %d bytes follow", ErrMalformedPacked, n, 8*words, len(body))
	}
	set, err := bitmapSet(body[:8*words], n)
	if err != nil {
		return 0, false, nil, err
	}
	end := 8 * (words + set)
	if len(body) < end {
		return 0, false, nil, fmt.Errorf("%w: bitmap marks %d values, %d bytes follow it", ErrMalformedPacked, end/8-words, len(body)-8*words)
	}
	return n, true, body[:end], nil
}

type i64SliceCodec struct{}

func (i64SliceCodec) Encode(dst []byte, v any) ([]byte, error) {
	s := v.([]int64)
	dst = appendUint32(dst, uint32(len(s)))
	for _, x := range s {
		dst = appendUint64(dst, uint64(x))
	}
	return dst, nil
}

func (i64SliceCodec) Decode(src []byte) (any, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("serde: short []int64 header")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if len(src) < 4+8*n {
		return nil, 0, fmt.Errorf("serde: short []int64 body")
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(src[4+8*i:]))
	}
	return out, 4 + 8*n, nil
}

type f64MatrixCodec struct{}

func (f64MatrixCodec) Encode(dst []byte, v any) ([]byte, error) {
	m := v.([][]float64)
	dst = appendUint32(dst, uint32(len(m)))
	for _, row := range m {
		dst = appendUint32(dst, uint32(len(row)))
		dst = AppendFloat64s(dst, row)
	}
	return dst, nil
}

func (f64MatrixCodec) Decode(src []byte) (any, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("serde: short [][]float64 header")
	}
	rows := int(binary.LittleEndian.Uint32(src))
	off := 4
	// Every row costs at least its 4-byte header, which bounds the row
	// table before it is allocated.
	if rows > (len(src)-off)/4 {
		return nil, 0, fmt.Errorf("serde: [][]float64 claims %d rows in %d bytes", rows, len(src)-off)
	}
	out := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		if len(src) < off+4 {
			return nil, 0, fmt.Errorf("serde: short [][]float64 row header")
		}
		n := int(binary.LittleEndian.Uint32(src[off:]))
		off += 4
		if len(src) < off+8*n {
			return nil, 0, fmt.Errorf("serde: short [][]float64 row body")
		}
		row := make([]float64, n)
		for j := range row {
			row[j] = Float64At(src, off+8*j)
		}
		out[i] = row
		off += 8 * n
	}
	return out, off, nil
}
