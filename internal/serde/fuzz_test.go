package serde

import "testing"

// FuzzDecode asserts the decoder never panics and never misreports
// consumed bytes, whatever arrives on the wire — malformed frames from
// a corrupted transport must surface as errors.
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{
		nil,
		{0, 0, 0, 0},
		{1, 0, 0, 0},                       // tagSelf with no body
		{7, 0, 0, 0, 255, 255, 255, 255},   // []float64 with huge length
		{4, 0, 0, 0, 3, 0, 0, 0, 'a', 'b'}, // truncated string
		{10, 0, 0, 0, 255, 255, 255, 255},  // [][]float64 with a huge row count (found by make fuzz-smoke)
	}
	if b, err := Encode(nil, []float64{1, 2, 3}); err == nil {
		seeds = append(seeds, b)
	}
	if b, err := Encode(nil, "hello"); err == nil {
		seeds = append(seeds, b)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := Decode(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		if v == nil {
			t.Fatal("Decode returned nil value without error")
		}
	})
}
