package linalg

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// randCSR builds a random labeled CSR matrix. density < 0 mixes empty,
// single-entry, and heavy rows to exercise degenerate shapes.
func randCSR(rng *rand.Rand, rows, dim int, density float64) *CSRMatrix {
	b := NewCSRBuilder(dim, rows, 0)
	for r := 0; r < rows; r++ {
		label := float64(rng.Intn(2))
		b.StartRow(label)
		d := density
		if d < 0 {
			switch rng.Intn(4) {
			case 0:
				d = 0 // empty row
			case 1:
				d = 1.0 / float64(dim) // ~single entry
			case 2:
				d = 0.9
			default:
				d = 0.2
			}
		}
		for j := 0; j < dim; j++ {
			if rng.Float64() < d {
				if err := b.AppendEntry(int32(j), advValue(rng)); err != nil {
					panic(err)
				}
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	m.Part = rng.Intn(8)
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// advValue draws a matrix value, now and then of an adversarial
// magnitude: any reassociated sum shows up in the low bits.
func advValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 1e16
	case 1:
		return 1e-16
	case 2:
		return 0
	}
	return rng.NormFloat64()
}

// pickedCSR builds a labeled matrix whose every row holds advValue
// entries at the columns pick returns (any order, repeats dropped).
func pickedCSR(rng *rand.Rand, rows, dim int, pick func() []int32) *CSRMatrix {
	b := NewCSRBuilder(dim, rows, 0)
	for r := 0; r < rows; r++ {
		b.StartRow(float64(rng.Intn(2)))
		cols := pick()
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		for i, c := range cols {
			if i > 0 && c == cols[i-1] {
				continue
			}
			if err := b.AppendEntry(c, advValue(rng)); err != nil {
				panic(err)
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// sparseCSR draws perRow columns uniformly from [lo, hi) for each row.
func sparseCSR(rng *rand.Rand, rows, dim, perRow, lo, hi int) *CSRMatrix {
	return pickedCSR(rng, rows, dim, func() []int32 {
		cols := make([]int32, perRow)
		for i := range cols {
			cols[i] = int32(lo + rng.Intn(hi-lo))
		}
		return cols
	})
}

// powerLawCSR draws perRow columns per row from a Zipf head over the
// first 1 % of the columns; the other 99 % stay empty.
func powerLawCSR(rng *rand.Rand, rows, dim, perRow int) *CSRMatrix {
	z := rand.NewZipf(rng, 1.5, 1, uint64(dim/100-1))
	return pickedCSR(rng, rows, dim, func() []int32 {
		cols := make([]int32, perRow)
		for i := range cols {
			cols[i] = int32(z.Uint64())
		}
		return cols
	})
}

// hypersparseCSRs are the wide regime's shapes: far fewer entries than
// columns, so almost every column is empty and the non-empty ones sit
// wherever the shape puts them.
func hypersparseCSRs(rng *rand.Rand) []namedCSR {
	const dim = 100_000
	return []namedCSR{
		{"3 per row", sparseCSR(rng, 200, dim, 3, 0, dim)},
		{"last 1% of cols", sparseCSR(rng, 200, dim, 3, dim-dim/100, dim)},
		{"one column", sparseCSR(rng, 200, dim, 1, 417, 418)},
		{"first and last", pickedCSR(rng, 200, dim, func() []int32 {
			return [][]int32{{}, {0}, {dim - 1}, {0, dim - 1}}[rng.Intn(4)]
		})},
		{"power-law head", powerLawCSR(rng, 300, dim, 6)},
	}
}

type namedCSR struct {
	name string
	m    *CSRMatrix
}

func csrEqual(t *testing.T, a, b *CSRMatrix) {
	t.Helper()
	if a.Part != b.Part || a.Dim != b.Dim || a.Rows() != b.Rows() || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.Part, a.Dim, a.Rows(), a.NNZ(), b.Part, b.Dim, b.Rows(), b.NNZ())
	}
	for i := range a.RowOffsets {
		if a.RowOffsets[i] != b.RowOffsets[i] {
			t.Fatalf("offset %d: %d vs %d", i, a.RowOffsets[i], b.RowOffsets[i])
		}
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("index %d: %d vs %d", i, a.Indices[i], b.Indices[i])
		}
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("value %d: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
	if (a.Labels == nil) != (b.Labels == nil) {
		t.Fatalf("labels presence: %v vs %v", a.Labels != nil, b.Labels != nil)
	}
	for i := range a.Labels {
		if math.Float64bits(a.Labels[i]) != math.Float64bits(b.Labels[i]) {
			t.Fatalf("label %d: %v vs %v", i, a.Labels[i], b.Labels[i])
		}
	}
}

// TestCSRRoundTrip is the wire-format property test: encode → decode
// reproduces the matrix exactly, through the zero-copy aliasing path,
// the forced-copy (unaligned) path, and the serde Unmarshaler path.
func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ rows, dim int }{
		{0, 1}, {1, 1}, {1, 50}, {7, 13}, {100, 64}, {33, 1000},
	}
	for trial := 0; trial < 20; trial++ {
		s := shapes[trial%len(shapes)]
		m := randCSR(rng, s.rows, s.dim, -1)
		if trial%3 == 0 {
			m.Labels = nil // unlabeled variant
		}
		enc := AppendCSR(nil, m)
		if len(enc) != m.EncodedSize() {
			t.Fatalf("EncodedSize %d but wrote %d", m.EncodedSize(), len(enc))
		}

		// Aligned decode (zero-copy on little-endian hosts).
		got, n, err := DecodeCSR(enc)
		if err != nil {
			t.Fatalf("DecodeCSR: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		csrEqual(t, m, got)

		// Unaligned decode must fall back to copying, same result.
		mis := make([]byte, len(enc)+1)
		copy(mis[1:], enc)
		got2, n2, err := DecodeCSR(mis[1:])
		if err != nil {
			t.Fatalf("unaligned DecodeCSR: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("unaligned consumed %d of %d", n2, len(enc))
		}
		csrEqual(t, m, got2)

		// Serde path (always copies).
		var got3 CSRMatrix
		n3, err := got3.UnmarshalBinaryFrom(enc)
		if err != nil {
			t.Fatalf("UnmarshalBinaryFrom: %v", err)
		}
		if n3 != len(enc) {
			t.Fatalf("serde consumed %d of %d", n3, len(enc))
		}
		csrEqual(t, m, &got3)

		// Serde decode must not alias: mutating the frame afterwards
		// (pooled-buffer recycling) must not corrupt the matrix.
		if got3.NNZ() > 0 {
			want := got3.Values[0]
			for i := range enc {
				enc[i] ^= 0xFF
			}
			if math.Float64bits(got3.Values[0]) != math.Float64bits(want) {
				t.Fatal("serde decode aliased the input buffer")
			}
		}
	}
}

func TestCSRZeroCopyAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy decode requires a little-endian host")
	}
	rng := rand.New(rand.NewSource(7))
	m := randCSR(rng, 20, 40, 0.3)
	enc := AppendCSR(nil, m)
	got, _, err := DecodeCSR(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() == 0 {
		t.Fatal("want nonempty matrix")
	}
	// Flip a stored value byte-wise in the source buffer; the aliasing
	// decode must observe it.
	before := got.Values[0]
	off := (csrHeaderSize + 8*len(m.RowOffsets) + 4*len(m.Indices) + 7) &^ 7
	enc[off] ^= 0x01
	if math.Float64bits(got.Values[0]) == math.Float64bits(before) {
		t.Fatal("decode copied: expected zero-copy aliasing of src arenas")
	}
}

func TestCSRBuilderStreamingMatchesAppendRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randCSR(rng, 50, 30, -1)
	b := NewCSRBuilder(m.Dim, 0, 0)
	for r := 0; r < m.Rows(); r++ {
		row := m.Row(r)
		if err := b.AppendRow(m.Label(r), row.Indices, row.Values); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got.Part = m.Part
	csrEqual(t, m, got)
}

func TestCSRBuilderErrors(t *testing.T) {
	b := NewCSRBuilder(10, 0, 0)
	if err := b.AppendEntry(0, 1); err == nil {
		t.Fatal("AppendEntry with no open row should fail")
	}
	b.StartRow(1)
	if err := b.AppendEntry(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendEntry(3, 2); err == nil {
		t.Fatal("duplicate index should fail")
	}
	if err := b.AppendEntry(2, 2); err == nil {
		t.Fatal("decreasing index should fail")
	}
	if err := b.AppendEntry(10, 2); err == nil {
		t.Fatal("out-of-dim index should fail")
	}
}

func TestCSRBuilderInfersDim(t *testing.T) {
	b := NewCSRBuilder(0, 0, 0)
	if err := b.AppendRow(1, []int32{2, 17}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim != 18 {
		t.Fatalf("inferred dim %d, want 18", m.Dim)
	}
	// Empty input infers the minimum dim of 1.
	m2, err := NewCSRBuilder(0, 0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Dim != 1 || m2.Rows() != 0 {
		t.Fatalf("empty build: dim=%d rows=%d", m2.Dim, m2.Rows())
	}
}

// csrCorruptions are the header and body mutations DecodeCSR must
// refuse, applied to a valid encoded block (FuzzDecodeCSR seeds from
// them too).
var csrCorruptions = map[string]func([]byte) []byte{
	"short header":   func(b []byte) []byte { return b[:csrHeaderSize-1] },
	"bad magic":      func(b []byte) []byte { b[0] ^= 0xFF; return b },
	"huge nnz":       func(b []byte) []byte { b[32], b[33] = 0xFF, 0xFF; return b },
	"neg rows":       func(b []byte) []byte { b[31] = 0x80; return b },
	"huge dim":       func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], 1<<40); return b },
	"truncated body": func(b []byte) []byte { return b[:len(b)-1] },
}

// withLastIndex returns a copy of the encoded block enc of m with the
// last stored column index replaced.
func withLastIndex(m *CSRMatrix, enc []byte, ix int32) []byte {
	buf := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(buf[csrHeaderSize+8*len(m.RowOffsets)+4*(m.NNZ()-1):], uint32(ix))
	return buf
}

func TestDecodeCSRRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randCSR(rng, 10, 20, 0.4)
	enc := AppendCSR(nil, m)
	for name, mut := range csrCorruptions {
		if _, _, err := DecodeCSR(mut(append([]byte(nil), enc...))); err == nil {
			t.Errorf("%s: want decode error", name)
		}
	}
	// An index == Dim passes the decoder's structural checks; full index
	// validation is Validate's.
	got, _, err := DecodeCSR(withLastIndex(m, enc, int32(m.Dim)))
	if err != nil {
		t.Fatalf("index == Dim: structural decode failed: %v", err)
	}
	if got.Validate() == nil {
		t.Error("index == Dim: Validate accepted it")
	}
}

// FuzzDecodeCSR: whatever bytes a block store or a frame hands back,
// DecodeCSR refuses them or returns a matrix whose Validate verdict can
// be trusted — one it accepts runs through every kernel, full batch and
// sampled, without a panic or a store outside the accumulator.
func FuzzDecodeCSR(f *testing.F) {
	// Seeds are kept small: the fuzzer minimizes every input that adds
	// coverage, at a cost that grows with its size.
	const seedRows = 64
	rng := rand.New(rand.NewSource(14))
	m := randCSR(rng, seedRows, 12, 0.1)
	enc := AppendCSR(nil, m)
	f.Add(enc)
	for _, mut := range csrCorruptions {
		f.Add(mut(append([]byte(nil), enc...)))
	}
	f.Add(withLastIndex(m, enc, int32(m.Dim)))
	f.Add(AppendCSR(nil, randCSR(rng, 0, 7, 0.5)))       // zero rows
	f.Add(AppendCSR(nil, randCSR(rng, seedRows, 40, 0))) // zero nnz
	f.Add(AppendCSR(nil, sparseCSR(rng, seedRows, 5000, 1, 0, 5000)))
	unlabeled := randCSR(rng, seedRows, 12, 0.1)
	unlabeled.Labels = nil
	f.Add(AppendCSR(nil, unlabeled))
	f.Fuzz(func(t *testing.T, b []byte) {
		// 8-byte aligned, so the decoder takes its aliasing path when the
		// host allows it.
		words := make([]uint64, (len(b)+7)/8)
		src := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(b))
		copy(src, b)
		m, n, err := DecodeCSR(src)
		if err != nil {
			return
		}
		if n > len(src) {
			t.Fatalf("consumed %d of %d bytes", n, len(src))
		}
		// A caller holds Dim-sized weights; the harness only does for
		// dims it can afford.
		if m.Validate() != nil || m.Dim > 1<<16 {
			return
		}
		const guard = 3 // accumulator elements past its end no kernel may touch
		w := make([]float64, m.Dim)
		run := func(name string, n int, kernel func(acc []float64)) {
			acc := make([]float64, n+guard)
			for i := n; i < len(acc); i++ {
				acc[i] = math.Pi
			}
			kernel(acc[:n:n])
			for _, g := range acc[n:] {
				if g != math.Pi {
					t.Fatalf("%s wrote past the accumulator", name)
				}
			}
		}
		sampled := make([]int32, 0, m.Rows())
		for r := 0; r < m.Rows(); r += 2 {
			sampled = append(sampled, int32(r))
		}
		if m.Labels != nil || m.Rows() == 0 {
			for _, rows := range [][]int32{nil, sampled} {
				run("CSRGrad", m.Dim, func(acc []float64) { CSRGrad(CSRLogistic, m, rows, w, acc, 1) })
			}
		}
		run("CSRKMeans", m.Dim+2, func(acc []float64) { CSRKMeans(m, w, []float64{0}, 1, m.Dim, acc) })
	})
}

// TestCompactColumns: the dictionary lists the support's set bits below
// Dim in order, and the re-indexed matrix stores each entry at its
// column's rank, over the original offsets, values and labels — so a
// pass over it against w gathered at the dictionary accumulates, column
// for column, the bits the pass over the original accumulates.
func TestCompactColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dim := range []int{1, 63, 64, 65, 1000, 4099} {
		m := randCSR(rng, 60, dim, 0.01)
		sup := make([]uint64, (dim+2+63)/64)
		for _, j := range m.Indices {
			sup[j>>6] |= 1 << uint(j&63)
		}
		for j := dim; j < 64*len(sup); j++ { // bits past Dim are no columns
			sup[j>>6] |= 1 << uint(j&63)
		}
		for k := 0; k < 5; k++ { // a few columns no row stores
			j := rng.Intn(dim)
			sup[j>>6] |= 1 << uint(j&63)
		}
		local, cols := CompactColumns(m, sup)
		var want []int32
		for j := 0; j < dim; j++ {
			if sup[j>>6]>>uint(j&63)&1 != 0 {
				want = append(want, int32(j))
			}
		}
		if len(cols) != len(want) || local.Dim != len(cols) || local.Part != m.Part {
			t.Fatalf("dim %d: %d columns over Dim %d, want %d", dim, len(cols), local.Dim, len(want))
		}
		for i := range want {
			if cols[i] != want[i] {
				t.Fatalf("dim %d: column %d is %d, want %d", dim, i, cols[i], want[i])
			}
		}
		for k, j := range m.Indices {
			if cols[local.Indices[k]] != j {
				t.Fatalf("dim %d: entry %d at local column %d, which is %d, not %d", dim, k, local.Indices[k], cols[local.Indices[k]], j)
			}
		}
		if err := local.Validate(); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		w := make([]float64, dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		lw := make([]float64, len(cols))
		for k, j := range cols {
			lw[k] = w[j]
		}
		cum, lcum := make([]float64, dim), make([]float64, len(cols))
		loss, _ := CSRGrad(CSRLogistic, m, nil, w, cum, 1)
		lloss, _ := CSRGrad(CSRLogistic, local, nil, lw, lcum, 1)
		if math.Float64bits(loss) != math.Float64bits(lloss) {
			t.Fatalf("dim %d: loss %v in the column space, %v in the original", dim, lloss, loss)
		}
		for k, j := range cols {
			if math.Float64bits(lcum[k]) != math.Float64bits(cum[j]) {
				t.Fatalf("dim %d: column %d accumulated %v in the column space, %v in the original", dim, j, lcum[k], cum[j])
			}
		}
	}
}

// fuzzRows reads rows from b: each row is a head byte h — h&7 entries,
// one value more than indices when h&8 is set, label h>>4 — then one
// byte per entry, an int8 step from the previous index (from −1), so a
// step ≤ 0 breaks the strict order. Values are the steps over 3.
func fuzzRows(b []byte) (labels []float64, idx [][]int32, vals [][]float64) {
	for len(b) > 0 {
		h := b[0]
		n := min(int(h&7), len(b)-1)
		ix, vs := make([]int32, n), make([]float64, n, n+1)
		prev := int32(-1)
		for k, c := range b[1 : 1+n] {
			prev += int32(int8(c))
			ix[k], vs[k] = prev, float64(int8(c))/3
		}
		if h&8 != 0 {
			vs = append(vs, 1)
		}
		labels, idx, vals = append(labels, float64(h>>4)), append(idx, ix), append(vals, vs)
		b = b[1+n:]
	}
	return labels, idx, vals
}

// FuzzPackCSRBlock: PackCSRBlock against the CSRBuilder it replaces on
// the pack path. Whatever rows arrive, the writer refuses exactly the
// rows AppendRow refuses, first row first, with AppendRow's error, and
// otherwise writes AppendCSR's bytes of the builder's matrix — dim 0
// inferred, an empty partition unlabeled — which AppendCSR writes the
// same over a dirty buffer.
func FuzzPackCSRBlock(f *testing.F) {
	f.Add(uint8(8), uint8(3), true, []byte{0x12, 3, 2, 0x20, 0x01, 5})
	f.Add(uint8(8), uint8(0), false, []byte{0x02, 1, 1, 0x00})
	f.Add(uint8(0), uint8(1), true, []byte{0x13, 9, 1, 1})
	f.Add(uint8(1), uint8(0), true, []byte{0x01, 1, 0x01, 2})       // dim 1; then index 1
	f.Add(uint8(4), uint8(2), true, []byte{0x02, 1, 0, 0x01, 0xff}) // a repeat, a negative step
	f.Add(uint8(4), uint8(2), true, []byte{0x09, 1})                // one value too many
	f.Add(uint8(4), uint8(7), true, []byte{})                       // no rows
	f.Fuzz(func(t *testing.T, dim, part uint8, labeled bool, b []byte) {
		labels, idx, vals := fuzzRows(b)
		nnz := 0
		for _, ix := range idx {
			nnz += len(ix)
		}
		bd := NewCSRBuilder(int(dim), len(idx), nnz)
		wantBad, wantErr := -1, error(nil)
		for r := range idx {
			if wantErr = bd.AppendRow(labels[r], idx[r], vals[r]); wantErr != nil {
				wantBad = r
				break
			}
		}
		got, bad, err := PackCSRBlock(int(part), int(dim), len(idx), nnz, labeled, func(r int) (float64, []int32, []float64) {
			return labels[r], idx[r], vals[r]
		})
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || bad != wantBad || err.Error() != wantErr.Error() {
				t.Fatalf("writer refuses row %d (%v), builder row %d (%v)", bad, err, wantBad, wantErr)
			}
			return
		}
		m, err := bd.Build()
		if err != nil {
			t.Fatal(err)
		}
		m.Part = int(part)
		if !labeled {
			m.Labels = nil
		}
		want := AppendCSR(nil, m)
		if !bytes.Equal(got, want) {
			t.Fatalf("block differs from AppendCSR of the builder's matrix:\n got %x\nwant %x", got, want)
		}
		// AppendCSR writes every byte of the form, pad included, over
		// whatever dst's spare capacity held.
		if dirty := AppendCSR(bytes.Repeat([]byte{0xff}, len(want))[:0], m); !bytes.Equal(dirty, want) {
			t.Fatalf("AppendCSR over a dirty buffer:\n got %x\nwant %x", dirty, want)
		}
	})
}
