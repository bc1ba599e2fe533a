package serde

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Built-in codecs for the primitive and slice types that flow through
// the engine: task counters, aggregator arrays, shuffle keys.

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

type f64SliceCodec struct{}

func (f64SliceCodec) Encode(dst []byte, v any) ([]byte, error) {
	s := v.([]float64)
	dst = appendUint32(dst, uint32(len(s)))
	return AppendFloat64s(dst, s), nil
}

func (f64SliceCodec) Decode(src []byte) (any, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("serde: short []float64 header")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if len(src) < 4+8*n {
		return nil, 0, fmt.Errorf("serde: short []float64 body")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = Float64At(src, 4+8*i)
	}
	return out, 4 + 8*n, nil
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
