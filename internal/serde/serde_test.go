package serde

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	b, err := Encode(nil, v)
	if err != nil {
		t.Fatalf("Encode(%v): %v", v, err)
	}
	got, n, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("Decode consumed %d bytes, encoded %d", n, len(b))
	}
	return got
}

func TestRoundTripPrimitives(t *testing.T) {
	cases := []any{
		int64(-5), int64(0), int64(math.MaxInt64),
		int(42), int(-1),
		float64(3.14159), float64(0), math.Inf(1),
		"", "hello, 世界",
		true, false,
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("roundtrip %v (%T): got %v (%T)", v, v, got, got)
		}
	}
}

func TestRoundTripSlices(t *testing.T) {
	cases := []any{
		[]byte{1, 2, 3},
		[]byte{},
		[]float64{1.5, -2.5, 0},
		[]float64{},
		[]int64{9, -9, 0},
		[][]float64{{1, 2}, {}, {3}},
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		// Codecs normalize nil/empty to empty; compare lengths + content.
		if !reflect.DeepEqual(got, v) && !(reflect.ValueOf(v).Len() == 0 && reflect.ValueOf(got).Len() == 0) {
			t.Errorf("roundtrip %v: got %v", v, got)
		}
	}
}

func TestRoundTripNaN(t *testing.T) {
	got := roundTrip(t, math.NaN()).(float64)
	if !math.IsNaN(got) {
		t.Errorf("NaN roundtrip gave %v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) should fail")
	}
	if _, _, err := Decode([]byte{0xff, 0xff, 0xff, 0x3f}); err == nil {
		t.Error("Decode with unknown tag should fail")
	}
	// Truncated payloads.
	full, _ := Encode(nil, []float64{1, 2, 3})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); err == nil && cut < len(full) {
			// Truncating within the trailing floats must error.
			if cut < len(full) {
				t.Errorf("Decode of %d/%d bytes should fail", cut, len(full))
			}
		}
	}
	for i, b := range malformedPacked {
		if _, _, err := Decode(b); !errors.Is(err, ErrMalformedPacked) {
			t.Errorf("malformed packed frame %d: %v, want ErrMalformedPacked", i, err)
		}
	}
}

func TestEncodeUnknownType(t *testing.T) {
	type private struct{ x int }
	if _, err := Encode(nil, private{1}); err == nil {
		t.Error("Encode of unregistered type should fail")
	}
}

func TestEncodedSize(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	n, err := EncodedSize(v)
	if err != nil {
		t.Fatal(err)
	}
	// 4 tag + 4 len + 4*8 payload.
	if n != 4+4+32 {
		t.Errorf("EncodedSize = %d, want 40", n)
	}
}

func TestQuickFloat64SliceRoundTrip(t *testing.T) {
	f := func(s []float64) bool {
		b, err := Encode(nil, s)
		if err != nil {
			return false
		}
		got, n, err := Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		gs := got.([]float64)
		if len(gs) != len(s) {
			return false
		}
		for i := range s {
			if gs[i] != s[i] && !(math.IsNaN(gs[i]) && math.IsNaN(s[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		b, err := Encode(nil, s)
		if err != nil {
			return false
		}
		got, _, err := Decode(b)
		return err == nil && got.(string) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- self-marshaling test type ---------------------------------------

type pointPair struct{ A, B float64 }

func (p pointPair) MarshalBinaryTo(dst []byte) []byte {
	dst = AppendFloat64(dst, p.A)
	return AppendFloat64(dst, p.B)
}

func (p *pointPair) UnmarshalBinaryFrom(src []byte) (int, error) {
	p.A = Float64At(src, 0)
	p.B = Float64At(src, 8)
	return 16, nil
}

func init() {
	RegisterSelf(pointPair{}, func() Unmarshaler { return new(pointPair) })
}

func TestSelfMarshaling(t *testing.T) {
	v := pointPair{1.5, -2.5}
	got := roundTrip(t, v)
	if got != v {
		t.Errorf("self roundtrip: got %v want %v", got, v)
	}
}

// --- custom codec registration path ------------------------------------

type rgbColor struct{ R, G, B uint8 }

type rgbCodec struct{}

func (rgbCodec) Encode(dst []byte, v any) ([]byte, error) {
	c := v.(rgbColor)
	return append(dst, c.R, c.G, c.B), nil
}

func (rgbCodec) Decode(src []byte) (any, int, error) {
	if len(src) < 3 {
		return nil, 0, fmt.Errorf("short rgb")
	}
	return rgbColor{src[0], src[1], src[2]}, 3, nil
}

func init() {
	Register(rgbColor{}, rgbCodec{})
}

func TestRegisteredCodecRoundTrip(t *testing.T) {
	v := rgbColor{10, 20, 30}
	got := roundTrip(t, v)
	if got != v {
		t.Fatalf("roundtrip = %v", got)
	}
	// MustEncode succeeds for registered types...
	b := MustEncode(nil, v)
	if len(b) != 7 { // 4 tag + 3 payload
		t.Fatalf("encoded %d bytes", len(b))
	}
	// ...and panics for unknown ones.
	defer func() {
		if recover() == nil {
			t.Error("MustEncode of unregistered type should panic")
		}
	}()
	type nope struct{ X chan int }
	MustEncode(nil, nope{})
}

func TestIntHelpers(t *testing.T) {
	b := AppendInt(nil, -42)
	if got := IntAt(b, 0); got != -42 {
		t.Fatalf("IntAt = %d", got)
	}
}
