// Package serde provides the serialization framework used by the rdd
// engine, the block manager and the scalable communicator.
//
// Every value that crosses an executor boundary — task results, stored
// blocks, aggregator segments — is encoded to bytes through this package,
// so serialization cost in the functional layer is real, mirroring the
// role of JavaSerializer/Kryo in Spark. Sparker's in-memory merge (IMM)
// optimization is visible precisely because it removes trips through
// this package.
//
// Values are encoded as a type tag followed by the codec-specific
// payload. Codecs are registered per concrete type; a handful of
// built-in codecs cover the types used by the engine and MLlib.
package serde

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// Marshaler is implemented by types that know how to serialize
// themselves. Types implementing Marshaler do not need a registered
// codec as long as they also implement Unmarshaler on their pointer.
type Marshaler interface {
	// MarshalBinaryTo appends the binary form of the value to dst and
	// returns the extended slice.
	MarshalBinaryTo(dst []byte) []byte
}

// Unmarshaler is the inverse of Marshaler.
type Unmarshaler interface {
	// UnmarshalBinaryFrom decodes the value from src and returns the
	// number of bytes consumed.
	UnmarshalBinaryFrom(src []byte) (int, error)
}

// Codec encodes and decodes values of a single concrete type.
type Codec interface {
	// Encode appends the binary form of v to dst.
	Encode(dst []byte, v any) ([]byte, error)
	// Decode reads one value from src, returning it and the number of
	// bytes consumed.
	Decode(src []byte) (any, int, error)
}

type registryEntry struct {
	tag   uint32
	codec Codec
}

var (
	regMu   sync.RWMutex
	byType         = map[reflect.Type]registryEntry{}
	byTag          = map[uint32]registryEntry{}
	nextTag uint32 = 64 // tags below 64 reserved for built-ins
)

// Register associates codec with the concrete dynamic type of sample.
// It must be called before any value of that type is encoded, typically
// from an init function. Registering the same type twice panics.
func Register(sample any, codec Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("serde: Register with nil sample")
	}
	if _, dup := byType[t]; dup {
		panic(fmt.Sprintf("serde: codec for %v registered twice", t))
	}
	e := registryEntry{tag: nextTag, codec: codec}
	nextTag++
	byType[t] = e
	byTag[e.tag] = e
}

// registerBuiltin installs a codec with a fixed tag < 64.
func registerBuiltin(tag uint32, sample any, codec Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	t := reflect.TypeOf(sample)
	if _, dup := byType[t]; dup {
		panic(fmt.Sprintf("serde: builtin codec for %v registered twice", t))
	}
	e := registryEntry{tag: tag, codec: codec}
	byType[t] = e
	byTag[tag] = e
}

// Encode appends the framed binary form of v (type tag + payload) to dst.
func Encode(dst []byte, v any) ([]byte, error) {
	if s, ok := v.([]float64); ok {
		// The aggregator's type: tag and payload sized together.
		return appendF64Slice(dst, nil, true, s, nil)
	}
	if m, ok := v.(Marshaler); ok {
		// Tag 1 = self-marshaling value; the concrete type must be
		// recoverable by the caller (used for homogeneous streams).
		dst = appendUint32(dst, tagSelf)
		dst = appendUint32(dst, selfTypeTag(v))
		return m.MarshalBinaryTo(dst), nil
	}
	regMu.RLock()
	e, ok := byType[reflect.TypeOf(v)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serde: no codec for %T", v)
	}
	dst = appendUint32(dst, e.tag)
	return e.codec.Encode(dst, v)
}

// Decode reads one framed value from src.
func Decode(src []byte) (any, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("serde: short buffer (%d bytes)", len(src))
	}
	tag := binary.LittleEndian.Uint32(src)
	if tag == tagSelf {
		return decodeSelf(src)
	}
	regMu.RLock()
	e, ok := byTag[tag]
	regMu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("serde: unknown type tag %d", tag)
	}
	v, n, err := e.codec.Decode(src[4:])
	if err != nil {
		return nil, 0, err
	}
	return v, n + 4, nil
}

// MustEncode is Encode for values known to have codecs; it panics on error.
func MustEncode(dst []byte, v any) []byte {
	b, err := Encode(dst, v)
	if err != nil {
		panic(err)
	}
	return b
}

// EncodedSize returns the number of bytes Encode would produce for v.
func EncodedSize(v any) (int, error) {
	b, err := Encode(nil, v)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// --- self-marshaling type registry -----------------------------------

// Self-marshaling types still need a factory so Decode can construct a
// fresh value to unmarshal into.

const tagSelf = 1

var (
	selfMu      sync.RWMutex
	selfByType         = map[reflect.Type]uint32{}
	selfFactory        = map[uint32]func() Unmarshaler{}
	selfNext    uint32 = 1
)

// RegisterSelf registers a factory for a self-marshaling type. sample
// must implement Marshaler and the value returned by factory must
// implement Unmarshaler.
func RegisterSelf(sample Marshaler, factory func() Unmarshaler) {
	selfMu.Lock()
	defer selfMu.Unlock()
	t := reflect.TypeOf(sample)
	if _, dup := selfByType[t]; dup {
		panic(fmt.Sprintf("serde: self codec for %v registered twice", t))
	}
	id := selfNext
	selfNext++
	selfByType[t] = id
	selfFactory[id] = factory
}

func selfTypeTag(v any) uint32 {
	selfMu.RLock()
	defer selfMu.RUnlock()
	id, ok := selfByType[reflect.TypeOf(v)]
	if !ok {
		panic(fmt.Sprintf("serde: self-marshaling type %T not registered with RegisterSelf", v))
	}
	return id
}

func decodeSelf(src []byte) (v any, n int, err error) {
	if len(src) < 8 {
		return nil, 0, fmt.Errorf("serde: short self-marshaled buffer")
	}
	id := binary.LittleEndian.Uint32(src[4:])
	selfMu.RLock()
	factory, ok := selfFactory[id]
	selfMu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("serde: unknown self type id %d", id)
	}
	// Unmarshalers are written against well-formed frames; a truncated
	// or corrupted buffer must surface as an error, not take the
	// process down.
	defer func() {
		if r := recover(); r != nil {
			v, n = nil, 0
			err = fmt.Errorf("serde: corrupt self-marshaled frame for type id %d: %v", id, r)
		}
	}()
	u := factory()
	used, err := u.UnmarshalBinaryFrom(src[8:])
	if err != nil {
		return nil, 0, err
	}
	if used < 0 || used > len(src)-8 {
		return nil, 0, fmt.Errorf("serde: unmarshaler for type id %d consumed %d of %d bytes", id, used, len(src)-8)
	}
	return deref(u), used + 8, nil
}

// deref unwraps pointer receivers that marshal value types: if the
// factory returned *T and T implements Marshaler, return T.
func deref(v Unmarshaler) any {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		if _, ok := rv.Elem().Interface().(Marshaler); ok {
			return rv.Elem().Interface()
		}
	}
	return v
}

// --- primitive helpers ------------------------------------------------

func appendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendFloat64 appends the IEEE-754 encoding of f.
func AppendFloat64(dst []byte, f float64) []byte {
	return appendUint64(dst, math.Float64bits(f))
}

// AppendFloat64s bulk-appends the IEEE-754 encodings of vals, growing
// dst at most once to the exact 8·len size instead of amortized-append
// per element — the aggregator-payload hot path.
func AppendFloat64s(dst []byte, vals []float64) []byte {
	need := 8 * len(vals)
	dst = grow(dst, need)
	off := len(dst)
	dst = dst[:off+need]
	if hostLittleEndian {
		copy(dst[off:], f64Bytes(vals))
		return dst
	}
	for _, f := range vals {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(f))
		off += 8
	}
	return dst
}

// hostLittleEndian reports whether the host stores a float64 as its
// little-endian wire word: then a run of them is copied, not converted.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f64Bytes is v's memory as bytes.
func f64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// grow returns dst with room for need more bytes, reallocating at most
// once, to exactly len(dst)+need.
func grow(dst []byte, need int) []byte {
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	return dst
}

// reserve is grow(dst, need), or draw(need) when draw is set.
func reserve(dst []byte, draw func(int) []byte, need int) []byte {
	if draw != nil {
		return draw(need)
	}
	return grow(dst, need)
}

// Float64At reads a float64 at offset i.
func Float64At(src []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
}

// AddWords adds word i of src, a little-endian float64, into dst[i] for
// every element of dst: the one dense add-from-wire kernel, 4-wide
// unrolled. The incoming word is the sum's second operand, as in every
// []float64 adder, so where both are NaN the sum keeps the incoming
// one's on amd64. src holds at least len(dst) words.
func AddWords(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] += Float64At(src, 8*i)
		dst[i+1] += Float64At(src, 8*i+8)
		dst[i+2] += Float64At(src, 8*i+16)
		dst[i+3] += Float64At(src, 8*i+24)
	}
	for ; i < len(dst); i++ {
		dst[i] += Float64At(src, 8*i)
	}
}

// AppendInt appends a 64-bit little-endian integer.
func AppendInt(dst []byte, v int) []byte {
	return appendUint64(dst, uint64(v))
}

// IntAt reads a 64-bit little-endian integer at offset i.
func IntAt(src []byte, i int) int {
	return int(binary.LittleEndian.Uint64(src[i:]))
}
