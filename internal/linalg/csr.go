package linalg

// CSRMatrix is the packed partition format of the compute plane: one
// contiguous arena per component (row offsets, column indices, values,
// labels) instead of a pointer-per-point []LabeledPoint. Packing turns
// the gradient map phase from a pointer chase over thousands of small
// heap objects into streaming passes over four flat slices, which is
// what lets the fused kernels in csrkernels.go run at memory speed.
//
// The wire encoding (AppendCSR / DecodeCSR) is a fixed little-endian
// header followed by the raw arenas, 8-byte aligned — no gob, no
// per-element framing — so a cached block decodes by aliasing the
// stored bytes (zero copy) on little-endian hosts. Executors cache
// packed partitions through the block manager in exactly this form.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"sparker/internal/serde"
)

// hostLittleEndian reports whether the host stores multi-byte words
// little-endian — the precondition for aliasing wire arenas in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// CSRMatrix holds one partition's rows in compressed sparse row form.
// Row r's entries live at Indices[RowOffsets[r]:RowOffsets[r+1]] /
// Values[...], with column indices strictly increasing within a row.
// Labels is per-row supervision (nil for unlabeled data like KMeans
// points). The four arenas are all a matrix holds: the kernels derive
// nothing from it and cache nothing on it.
type CSRMatrix struct {
	// Part is the partition index this matrix was packed from; minibatch
	// sampling keys its per-partition RNG stream off it.
	Part int
	// Dim is the column dimensionality.
	Dim int
	// RowOffsets has Rows()+1 entries; RowOffsets[0] == 0.
	RowOffsets []int64
	// Indices / Values are the concatenated row entries.
	Indices []int32
	Values  []float64
	// Labels has Rows() entries, or is nil.
	Labels []float64
}

// Rows returns the row count.
func (m *CSRMatrix) Rows() int {
	if len(m.RowOffsets) == 0 {
		return 0
	}
	return len(m.RowOffsets) - 1
}

// NNZ returns the stored entry count.
func (m *CSRMatrix) NNZ() int { return len(m.Indices) }

// Row returns row r as a zero-copy SparseVector view into the arenas.
// The view must be treated as immutable.
func (m *CSRMatrix) Row(r int) SparseVector {
	s, e := m.RowOffsets[r], m.RowOffsets[r+1]
	return SparseVector{Dim: m.Dim, Indices: m.Indices[s:e:e], Values: m.Values[s:e:e]}
}

// Label returns row r's label (0 when the matrix is unlabeled).
func (m *CSRMatrix) Label(r int) float64 {
	if m.Labels == nil {
		return 0
	}
	return m.Labels[r]
}

// Validate checks the full CSR invariants: monotonic offsets covering
// the arenas, strictly increasing in-range indices per row, and label
// arity. O(nnz); decode paths run only the structural subset.
func (m *CSRMatrix) Validate() error {
	rows := m.Rows()
	if len(m.RowOffsets) > 0 && m.RowOffsets[0] != 0 {
		return fmt.Errorf("linalg: csr offsets start at %d, want 0", m.RowOffsets[0])
	}
	if len(m.Indices) != len(m.Values) {
		return fmt.Errorf("linalg: csr %d indices but %d values", len(m.Indices), len(m.Values))
	}
	if m.Labels != nil && len(m.Labels) != rows {
		return fmt.Errorf("linalg: csr %d labels for %d rows", len(m.Labels), rows)
	}
	for r := 0; r < rows; r++ {
		s, e := m.RowOffsets[r], m.RowOffsets[r+1]
		if s > e || e > int64(len(m.Indices)) {
			return fmt.Errorf("linalg: csr row %d offsets [%d,%d) out of bounds", r, s, e)
		}
		prev := int32(-1)
		for k := s; k < e; k++ {
			ix := m.Indices[k]
			if ix <= prev {
				return fmt.Errorf("linalg: csr row %d indices not strictly increasing at %d", r, ix)
			}
			if int(ix) >= m.Dim {
				return fmt.Errorf("linalg: csr row %d index %d out of dim %d", r, ix, m.Dim)
			}
			prev = ix
		}
	}
	if rows >= 0 && len(m.RowOffsets) > 0 && m.RowOffsets[rows] != int64(len(m.Indices)) {
		return fmt.Errorf("linalg: csr offsets end at %d, want %d", m.RowOffsets[rows], len(m.Indices))
	}
	return nil
}

// CompactColumns re-indexes m into the columns sup names (bit j%64 of
// word j/64 for column j): cols lists sup's set bits below m.Dim in
// ascending order, and local is m over len(cols) columns, every stored
// column j replaced by its rank among cols. local shares m's row
// offsets, values and labels, so a kernel pass over local against w
// gathered at cols computes, column for column, the bits the same pass
// over m against w computes. Every column m stores must be a set bit of
// sup. O(nnz + Dim/64): a rank is the set bits of the words before j's
// plus those of j's own word below it.
func CompactColumns(m *CSRMatrix, sup []uint64) (local *CSRMatrix, cols []int32) {
	words := serde.PackedWords(m.Dim)
	base := make([]int32, words)
	n := 0
	for w := range base {
		base[w] = int32(n)
		n += bits.OnesCount64(columnWord(sup, w, m.Dim))
	}
	cols = make([]int32, 0, n)
	for w := range base {
		for b := columnWord(sup, w, m.Dim); b != 0; b &= b - 1 {
			cols = append(cols, int32(64*w+bits.TrailingZeros64(b)))
		}
	}
	idx := make([]int32, len(m.Indices))
	for k, j := range m.Indices {
		idx[k] = base[j>>6] + int32(bits.OnesCount64(sup[j>>6]&(1<<uint(j&63)-1)))
	}
	return &CSRMatrix{Part: m.Part, Dim: n, RowOffsets: m.RowOffsets, Indices: idx, Values: m.Values, Labels: m.Labels}, cols
}

// columnWord is word w of sup with the bits at or past dim cleared.
func columnWord(sup []uint64, w, dim int) uint64 {
	if tail := dim - 64*w; tail < 64 {
		return sup[w] & (1<<uint(tail) - 1)
	}
	return sup[w]
}

// PackRows packs unlabeled sparse rows into a CSR matrix. Rows must
// already satisfy the SparseVector invariants against dim.
func PackRows(dim int, rows []SparseVector) (*CSRMatrix, error) {
	b := NewCSRBuilder(dim, len(rows), 0)
	for _, r := range rows {
		if err := b.AppendRow(0, r.Indices, r.Values); err != nil {
			return nil, err
		}
	}
	m, err := b.Build()
	if err != nil {
		return nil, err
	}
	m.Labels = nil
	return m, nil
}

// --- builder ----------------------------------------------------------

// CSRBuilder accumulates rows into the packed arenas. It supports both
// whole-row appends (AppendRow) and a streaming per-entry protocol
// (StartRow + AppendEntry) that lets parsers feed the arenas directly
// without materializing intermediate per-row slices. dim 0 defers the
// dimensionality to Build, inferring max(index)+1.
type CSRBuilder struct {
	dim     int // 0: infer at Build
	maxIdx  int32
	rowOpen bool
	prev    int32 // last index of the open row, -1 at row start

	offs   []int64
	idx    []int32
	vals   []float64
	labels []float64
}

// NewCSRBuilder sizes a builder. rowsHint/nnzHint pre-allocate the
// arenas (0 is fine).
func NewCSRBuilder(dim, rowsHint, nnzHint int) *CSRBuilder {
	b := &CSRBuilder{dim: dim, maxIdx: -1, prev: -1}
	b.offs = make([]int64, 1, rowsHint+1)
	if nnzHint > 0 {
		b.idx = make([]int32, 0, nnzHint)
		b.vals = make([]float64, 0, nnzHint)
	}
	if rowsHint > 0 {
		b.labels = make([]float64, 0, rowsHint)
	}
	return b
}

// StartRow opens a new row with the given label.
func (b *CSRBuilder) StartRow(label float64) {
	b.closeRow()
	b.rowOpen = true
	b.prev = -1
	b.labels = append(b.labels, label)
}

func (b *CSRBuilder) closeRow() {
	if b.rowOpen {
		b.offs = append(b.offs, int64(len(b.idx)))
		b.rowOpen = false
	}
}

// AppendEntry adds one (index, value) pair to the open row. Indices
// must arrive strictly increasing; with a fixed dim they must also be
// in range (inferred dims are checked at Build).
func (b *CSRBuilder) AppendEntry(ix int32, val float64) error {
	if !b.rowOpen {
		return fmt.Errorf("linalg: AppendEntry with no open row")
	}
	if ix <= b.prev {
		return fmt.Errorf("linalg: indices not strictly increasing at %d", ix)
	}
	if b.dim > 0 && int(ix) >= b.dim {
		return fmt.Errorf("linalg: index %d out of dim %d", ix, b.dim)
	}
	if ix > b.maxIdx {
		b.maxIdx = ix
	}
	b.prev = ix
	b.idx = append(b.idx, ix)
	b.vals = append(b.vals, val)
	return nil
}

// AppendRow adds one whole row.
func (b *CSRBuilder) AppendRow(label float64, indices []int32, values []float64) error {
	if len(indices) != len(values) {
		return fmt.Errorf("linalg: %d indices but %d values", len(indices), len(values))
	}
	b.StartRow(label)
	for i, ix := range indices {
		if err := b.AppendEntry(ix, values[i]); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the number of rows appended so far.
func (b *CSRBuilder) Rows() int { return len(b.labels) }

// Build finalizes the matrix. With dim 0 the dimensionality is
// inferred as max(index)+1 (minimum 1, matching the libsvm reader's
// convention for empty inputs).
func (b *CSRBuilder) Build() (*CSRMatrix, error) {
	b.closeRow()
	dim := b.dim
	if dim == 0 {
		dim = int(b.maxIdx) + 1
		if dim < 1 {
			dim = 1
		}
	}
	m := &CSRMatrix{
		Dim:        dim,
		RowOffsets: b.offs,
		Indices:    b.idx,
		Values:     b.vals,
		Labels:     b.labels,
	}
	// Reusing the builder after Build would mutate the matrix's arenas.
	b.offs, b.idx, b.vals, b.labels = nil, nil, nil, nil
	return m, nil
}

// --- wire format ------------------------------------------------------

// Layout (all little-endian):
//
//	[0:4)   magic "CSR1"
//	[4:8)   flags (bit 0: labels present)
//	[8:16)  part
//	[16:24) dim
//	[24:32) rows
//	[32:40) nnz
//	[40:)   rowOffsets  int64 × (rows+1)    (8-aligned)
//	        indices     int32 × nnz
//	        pad to 8
//	        values      float64 × nnz       (8-aligned)
//	        labels      float64 × rows      (if flagged; 8-aligned)
const (
	csrMagic      = 0x31525343 // "CSR1" little-endian
	csrHeaderSize = 40
	csrFlagLabels = 1
)

// EncodedSize returns the exact AppendCSR output size.
func (m *CSRMatrix) EncodedSize() int {
	sz := csrHeaderSize + 8*len(m.RowOffsets) + 4*len(m.Indices)
	sz = (sz + 7) &^ 7
	sz += 8 * len(m.Values)
	if m.Labels != nil {
		sz += 8 * len(m.Labels)
	}
	return sz
}

func int64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

func int32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

func float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// AppendCSR appends m's wire form to dst and returns the extended
// slice. On little-endian hosts the arenas are bulk-copied; the
// big-endian fallback serializes element-wise.
func AppendCSR(dst []byte, m *CSRMatrix) []byte {
	base := len(dst)
	need := m.EncodedSize()
	dst = append(dst, make([]byte, need)...)
	buf := dst[base:]
	binary.LittleEndian.PutUint32(buf[0:], csrMagic)
	var flags uint32
	if m.Labels != nil {
		flags |= csrFlagLabels
	}
	binary.LittleEndian.PutUint32(buf[4:], flags)
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(m.Part)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(m.Dim)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(int64(m.Rows())))
	binary.LittleEndian.PutUint64(buf[32:], uint64(int64(len(m.Indices))))
	off := csrHeaderSize
	if hostLittleEndian {
		off += copy(buf[off:], int64Bytes(m.RowOffsets))
		off += copy(buf[off:], int32Bytes(m.Indices))
		off = (off + 7) &^ 7
		off += copy(buf[off:], float64Bytes(m.Values))
		if m.Labels != nil {
			copy(buf[off:], float64Bytes(m.Labels))
		}
		return dst
	}
	for _, v := range m.RowOffsets {
		binary.LittleEndian.PutUint64(buf[off:], uint64(v))
		off += 8
	}
	for _, v := range m.Indices {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	off = (off + 7) &^ 7
	for _, v := range m.Values {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	for _, v := range m.Labels {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return dst
}

// DecodeCSR decodes a matrix from src. When the host is little-endian
// and src is 8-byte aligned, the returned matrix's arenas alias src
// directly — zero copy; the caller must treat src as immutable and may
// rely on the GC keeping it alive while the matrix is referenced.
// Otherwise the arenas are copied out. Returns the matrix and the
// bytes consumed.
func DecodeCSR(src []byte) (*CSRMatrix, int, error) {
	m := new(CSRMatrix)
	alias := hostLittleEndian && (len(src) == 0 || uintptr(unsafe.Pointer(&src[0]))%8 == 0)
	n, err := decodeCSRInto(m, src, !alias)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// decodeCSRInto reads the wire form into m. copyArenas forces copying
// (the safe mode for pooled or unaligned buffers).
func decodeCSRInto(m *CSRMatrix, src []byte, copyArenas bool) (int, error) {
	if len(src) < csrHeaderSize {
		return 0, fmt.Errorf("linalg: short CSR header (%d bytes)", len(src))
	}
	if binary.LittleEndian.Uint32(src[0:]) != csrMagic {
		return 0, fmt.Errorf("linalg: bad CSR magic")
	}
	flags := binary.LittleEndian.Uint32(src[4:])
	part := int64(binary.LittleEndian.Uint64(src[8:]))
	dim := int64(binary.LittleEndian.Uint64(src[16:]))
	rows := int64(binary.LittleEndian.Uint64(src[24:]))
	nnz := int64(binary.LittleEndian.Uint64(src[32:]))
	// Indices are int32, so no column can lie past MaxInt32 — and the
	// kernels' callers size the weight and accumulator vectors by dim.
	if dim < 0 || dim > math.MaxInt32 || rows < 0 || nnz < 0 || rows > int64(len(src)) || nnz > int64(len(src)) {
		return 0, fmt.Errorf("linalg: corrupt CSR header (dim=%d rows=%d nnz=%d)", dim, rows, nnz)
	}
	offEnd := csrHeaderSize + 8*(rows+1)
	idxEnd := offEnd + 4*nnz
	valStart := (idxEnd + 7) &^ 7
	valEnd := valStart + 8*nnz
	labEnd := valEnd
	if flags&csrFlagLabels != 0 {
		labEnd += 8 * rows
	}
	if labEnd > int64(len(src)) {
		return 0, fmt.Errorf("linalg: truncated CSR body (need %d of %d bytes)", labEnd, len(src))
	}
	m.Part = int(part)
	m.Dim = int(dim)
	copyArenas = copyArenas || !hostLittleEndian ||
		(len(src) > 0 && uintptr(unsafe.Pointer(&src[0]))%8 != 0)
	if copyArenas {
		m.RowOffsets = make([]int64, rows+1)
		m.Indices = make([]int32, nnz)
		m.Values = make([]float64, nnz)
		for i := range m.RowOffsets {
			m.RowOffsets[i] = int64(binary.LittleEndian.Uint64(src[csrHeaderSize+8*i:]))
		}
		for i := range m.Indices {
			m.Indices[i] = int32(binary.LittleEndian.Uint32(src[offEnd+4*int64(i):]))
		}
		for i := range m.Values {
			m.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[valStart+8*int64(i):]))
		}
		if flags&csrFlagLabels != 0 {
			m.Labels = make([]float64, rows)
			for i := range m.Labels {
				m.Labels[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[valEnd+8*int64(i):]))
			}
		}
	} else {
		m.RowOffsets = unsafe.Slice((*int64)(unsafe.Pointer(&src[csrHeaderSize])), rows+1)
		if nnz > 0 {
			m.Indices = unsafe.Slice((*int32)(unsafe.Pointer(&src[offEnd])), nnz)
			m.Values = unsafe.Slice((*float64)(unsafe.Pointer(&src[valStart])), nnz)
		} else {
			m.Indices, m.Values = nil, nil
		}
		if flags&csrFlagLabels != 0 {
			if rows > 0 {
				m.Labels = unsafe.Slice((*float64)(unsafe.Pointer(&src[valEnd])), rows)
			} else {
				m.Labels = []float64{}
			}
		} else {
			m.Labels = nil
		}
	}
	// Structural sanity so Row() and the kernels cannot slice out of
	// bounds on corrupt input; full index validation is Validate().
	if m.RowOffsets[0] != 0 || m.RowOffsets[rows] != nnz {
		return 0, fmt.Errorf("linalg: corrupt CSR offsets")
	}
	for r := int64(0); r < rows; r++ {
		if m.RowOffsets[r] > m.RowOffsets[r+1] {
			return 0, fmt.Errorf("linalg: corrupt CSR offsets at row %d", r)
		}
	}
	return int(labEnd), nil
}

// MarshalBinaryTo implements serde.Marshaler (pointer receiver: the
// serde citizen is *CSRMatrix).
func (m *CSRMatrix) MarshalBinaryTo(dst []byte) []byte { return AppendCSR(dst, m) }

// UnmarshalBinaryFrom implements serde.Unmarshaler. The serde path
// always copies the arenas — frames may live in pooled or transport
// buffers whose bytes are recycled; zero-copy decoding is reserved for
// DecodeCSR over block-manager-owned bytes.
func (m *CSRMatrix) UnmarshalBinaryFrom(src []byte) (int, error) {
	return decodeCSRInto(m, src, true)
}

func init() {
	serde.RegisterSelf(&CSRMatrix{}, func() serde.Unmarshaler { return new(CSRMatrix) })
}
