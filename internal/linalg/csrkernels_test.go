package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refGrad folds the scalar per-point path (Dot → multiplier → Axpy,
// exactly what mllib's Gradient.Compute does) over the selected rows in
// order. It is the bitwise reference every kernel result must match.
func refGrad(kind CSRGradKind, m *CSRMatrix, rows []int32, w, cum []float64) (lossSum, count float64) {
	n := m.Rows()
	if rows != nil {
		n = len(rows)
	}
	for i := 0; i < n; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		x := m.Row(r)
		label := m.Label(r)
		var loss float64
		switch kind {
		case CSRLogistic:
			margin := -Dot(w, x)
			mult := 1.0/(1.0+math.Exp(margin)) - label
			Axpy(mult, x, cum)
			if label > 0 {
				loss = Log1pExp(margin)
			} else {
				loss = Log1pExp(margin) - margin
			}
		case CSRLeastSquares:
			diff := Dot(w, x) - label
			Axpy(diff, x, cum)
			loss = diff * diff / 2
		case CSRHinge:
			scaled := 2*label - 1
			dot := Dot(w, x)
			if 1-scaled*dot > 0 {
				Axpy(-scaled, x, cum)
				loss = 1 - scaled*dot
			}
		}
		lossSum += loss
		count++
	}
	return
}

// refKMeans folds the scalar nearest-center seqOp (mllib's sqDist
// arithmetic) over all rows in order, into TrainKMeans's accumulator
// layout.
func refKMeans(m *CSRMatrix, centers []float64, k, dim int, acc []float64) {
	for r := 0; r < m.Rows(); r++ {
		x := m.Row(r)
		best, bestDist := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			center := centers[c*dim : (c+1)*dim]
			var cNorm float64
			for _, v := range center {
				cNorm += v * v
			}
			var xNorm, dot float64
			for i, ix := range x.Indices {
				v := x.Values[i]
				xNorm += v * v
				dot += center[ix] * v
			}
			d := cNorm - 2*dot + xNorm
			if d < 0 {
				d = 0
			}
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		for i, ix := range x.Indices {
			acc[best*dim+int(ix)] += x.Values[i]
		}
		acc[k*dim+best]++
		acc[k*dim+k] += bestDist
	}
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x) want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

var csrKernelKinds = []struct {
	name string
	kind CSRGradKind
}{
	{"logistic", CSRLogistic},
	{"leastsquares", CSRLeastSquares},
	{"hinge", CSRHinge},
}

// TestCSRGradBitwise is the gating property test for GDConfig.Packed:
// for every gradient family, partition shape, and worker count, the
// fused kernel's (cum, loss, count) must equal the sequential per-point
// fold bit for bit.
func TestCSRGradBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := hypersparseCSRs(rng)
	for _, s := range []struct {
		rows, dim int
		density   float64
	}{
		{0, 5, 0.5},    // empty partition
		{1, 40, 0.3},   // single row
		{3, 8, 0.9},    // tiny, below parallel cutoff
		{300, 64, 0.9}, // dense-ish
		{500, 200, 0.05},
		{400, 100, -1}, // mixed degenerate rows
	} {
		shapes = append(shapes, namedCSR{fmt.Sprintf("%dx%d", s.rows, s.dim), randCSR(rng, s.rows, s.dim, s.density)})
	}
	for _, kc := range csrKernelKinds {
		for _, sh := range shapes {
			m := sh.m
			w := make([]float64, m.Dim)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			refCum := make([]float64, m.Dim)
			refLoss, refCount := refGrad(kc.kind, m, nil, w, refCum)
			for _, workers := range []int{1, 2, 3, 8} {
				cum := make([]float64, m.Dim)
				loss, count := CSRGrad(kc.kind, m, nil, w, cum, workers)
				if math.Float64bits(loss) != math.Float64bits(refLoss) || count != refCount {
					t.Fatalf("%s %s w%d: loss/count %v/%v want %v/%v",
						kc.name, sh.name, workers, loss, count, refLoss, refCount)
				}
				bitsEqual(t, kc.name+"/"+sh.name+"/cum", cum, refCum)
			}
		}
	}
}

// TestCSRGradSampledBitwise covers the minibatch path: a sampled row
// subset (with repeats-free but arbitrary-order indices) folds
// identically through the kernel at any worker count.
func TestCSRGradSampledBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := append(hypersparseCSRs(rng), namedCSR{"mixed", randCSR(rng, 400, 80, -1)})
	for _, sh := range shapes {
		m := sh.m
		w := make([]float64, m.Dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		for _, frac := range []float64{0, 0.01, 0.3, 1} {
			var rows []int32
			for r := 0; r < m.Rows(); r++ {
				if rng.Float64() < frac {
					rows = append(rows, int32(r))
				}
			}
			if rows == nil {
				rows = []int32{}
			}
			for _, kc := range csrKernelKinds {
				refCum := make([]float64, m.Dim)
				refLoss, refCount := refGrad(kc.kind, m, rows, w, refCum)
				for _, workers := range []int{1, 2, 3, 4, 8} {
					cum := make([]float64, m.Dim)
					loss, count := CSRGrad(kc.kind, m, rows, w, cum, workers)
					if math.Float64bits(loss) != math.Float64bits(refLoss) || count != refCount {
						t.Fatalf("%s %s frac=%v w%d: loss/count %v/%v want %v/%v",
							kc.name, sh.name, frac, workers, loss, count, refLoss, refCount)
					}
					bitsEqual(t, kc.name+"/"+sh.name+"/cum", cum, refCum)
				}
			}
		}
	}
}

// TestCSRHingeZeroMultiplier pins the ±0 edge: an inactive hinge row
// performs no accumulator writes at all (matching the scalar path,
// which skips Axpy), while an active row with scaled == 0 (pathological
// label 0.5 → mult -0) still scatters. 0·v additions would flip -0
// accumulator elements, so skipping must key on the sign bit.
func TestCSRHingeZeroMultiplier(t *testing.T) {
	b := NewCSRBuilder(4, 0, 0)
	// label 1 → scaled 1; dot will be 2 → 1-2 < 0 → inactive.
	if err := b.AppendRow(1, []int32{0}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	// label 0.5 → scaled 0 → 1-0 > 0 → active with mult = -0.
	if err := b.AppendRow(0.5, []int32{1, 2}, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 0, 0, 0}
	for _, workers := range []int{1, 8} {
		// Seed cum with -0 so any spurious += 0 write flips it to +0.
		cum := []float64{math.Copysign(0, -1), math.Copysign(0, -1), 1, math.Copysign(0, -1)}
		refCum := append([]float64(nil), cum...)
		refLoss, _ := refGrad(CSRHinge, m, nil, w, refCum)
		loss, _ := CSRGrad(CSRHinge, m, nil, w, cum, workers)
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("w%d: loss %v want %v", workers, loss, refLoss)
		}
		bitsEqual(t, "cum", cum, refCum)
		if !math.Signbit(cum[0]) == math.Signbit(refCum[0]) {
			t.Fatal("sign bit mismatch on untouched element")
		}
	}
}

// TestCSRKMeansBitwise gates the packed KMeans path the same way.
func TestCSRKMeansBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	type kmShape struct {
		namedCSR
		k int
	}
	var shapes []kmShape
	for _, sh := range hypersparseCSRs(rng) {
		shapes = append(shapes, kmShape{sh, 3})
	}
	for _, s := range []struct {
		rows, dim, k int
	}{
		{0, 6, 2}, {1, 10, 3}, {250, 32, 5}, {400, 80, 8},
	} {
		shapes = append(shapes, kmShape{namedCSR{fmt.Sprintf("%dx%d", s.rows, s.dim), randCSR(rng, s.rows, s.dim, -1)}, s.k})
	}
	for _, s := range shapes {
		m := s.m
		m.Labels = nil
		centers := make([]float64, s.k*m.Dim)
		for i := range centers {
			centers[i] = rng.NormFloat64()
		}
		ref := make([]float64, s.k*m.Dim+s.k+1)
		refKMeans(m, centers, s.k, m.Dim, ref)
		cNorms := make([]float64, s.k)
		CSRKMeansCenterNorms(centers, s.k, m.Dim, cNorms)
		for _, workers := range []int{1, 2, 3, 8} {
			acc := make([]float64, len(ref))
			CSRKMeans(m, centers, cNorms, s.k, m.Dim, acc, workers)
			bitsEqual(t, fmt.Sprintf("%s w%d acc", s.name, workers), acc, ref)
		}
	}
}

// sliceLens appends the length of every slice reachable from v.
func sliceLens(v reflect.Value, lens []int) []int {
	switch v.Kind() {
	case reflect.Slice:
		lens = append(lens, v.Len())
	case reflect.Pointer:
		if !v.IsNil() {
			lens = sliceLens(v.Elem(), lens)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			lens = sliceLens(v.Field(i), lens)
		}
	}
	return lens
}

// TestCSCViewIsCompressed pins the column view's layout: one position
// per non-empty column and nothing else, so a matrix with fewer entries
// than columns keeps no Dim-sized state at all after the full-batch,
// sampled and KMeans kernels have built whatever they cache on it.
func TestCSCViewIsCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sh := range hypersparseCSRs(rng) {
		m := sh.m
		if m.NNZ() >= m.Dim || m.Rows() >= m.Dim {
			t.Fatalf("%s: not hypersparse (%d rows, %d nnz, dim %d)", sh.name, m.Rows(), m.NNZ(), m.Dim)
		}
		w, cum := make([]float64, m.Dim), make([]float64, m.Dim)
		CSRGrad(CSRLogistic, m, nil, w, cum, 3)
		sampled := make([]int32, m.Rows()/2)
		for i := range sampled {
			sampled[i] = int32(2 * i)
		}
		CSRGrad(CSRLogistic, m, sampled, w, cum, 3)
		CSRKMeans(m, w, []float64{0}, 1, m.Dim, make([]float64, m.Dim+2), 3)

		v := m.cscView()
		if v == nil {
			t.Fatalf("%s: no column view", sh.name)
		}
		distinct := map[int32]bool{}
		for _, ix := range m.Indices {
			distinct[ix] = true
		}
		if len(v.cols) != len(distinct) || len(v.offs) != len(v.cols)+1 {
			t.Fatalf("%s: %d cols, %d offs for %d distinct indices", sh.name, len(v.cols), len(v.offs), len(distinct))
		}
		if len(v.rows) != m.NNZ() || len(v.vals) != m.NNZ() || v.offs[0] != 0 || v.offs[len(v.cols)] != int64(m.NNZ()) {
			t.Fatalf("%s: view does not cover the %d entries", sh.name, m.NNZ())
		}
		for k, j := range v.cols {
			if !distinct[j] || (k > 0 && j <= v.cols[k-1]) {
				t.Fatalf("%s: cols[%d] = %d: empty column or not strictly ascending", sh.name, k, j)
			}
			if v.offs[k+1] <= v.offs[k] {
				t.Fatalf("%s: position %d (column %d) is empty", sh.name, k, j)
			}
			for p := v.offs[k]; p < v.offs[k+1]; p++ {
				if p > v.offs[k] && v.rows[p] <= v.rows[p-1] {
					t.Fatalf("%s: column %d rows not ascending", sh.name, j)
				}
				r := m.Row(int(v.rows[p]))
				at := sort.Search(len(r.Indices), func(i int) bool { return r.Indices[i] >= j })
				if at == len(r.Indices) || r.Indices[at] != j ||
					math.Float64bits(r.Values[at]) != math.Float64bits(v.vals[p]) {
					t.Fatalf("%s: view entry (row %d, column %d) is not the matrix's", sh.name, v.rows[p], j)
				}
			}
		}
		for _, n := range sliceLens(reflect.ValueOf(m), nil) {
			if n >= m.Dim {
				t.Fatalf("%s: the matrix holds a slice of %d elements, dim is %d", sh.name, n, m.Dim)
			}
		}
	}
}

// TestColumnShardingFailsClosed: a matrix Validate would reject for an
// out-of-range index gets no column view and no segment bounds, and the
// kernels fold it sequentially instead of indexing past a Dim-sized
// array.
func TestColumnShardingFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, bad := range []int32{-1, 50} {
		m := randCSR(rng, 100, 50, 0.2)
		m.Indices[len(m.Indices)-1] = bad
		if m.Validate() == nil {
			t.Fatalf("index %d: Validate accepted it", bad)
		}
		if m.cscView() != nil || m.colSegments(3) != nil {
			t.Fatalf("index %d: column view or segment bounds built", bad)
		}
		if bad < 0 {
			continue // no accumulator is long enough to run the kernels
		}
		// Long enough for the stray index: the sequential fold is defined.
		w := make([]float64, m.Dim+1)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		all := make([]int32, m.Rows())
		for i := range all {
			all[i] = int32(i)
		}
		for _, rows := range [][]int32{nil, all} {
			refCum, cum := make([]float64, len(w)), make([]float64, len(w))
			refLoss, _ := refGrad(CSRLogistic, m, rows, w, refCum)
			if loss, _ := CSRGrad(CSRLogistic, m, rows, w, cum, 3); math.Float64bits(loss) != math.Float64bits(refLoss) {
				t.Fatalf("loss %v want %v", loss, refLoss)
			}
			bitsEqual(t, "cum", cum, refCum)
		}
	}
}

// TestPackedKernelOverhead is the `make overhead` gate: steady-state
// fused gradient iterations allocate nothing, sequential or sharded.
func TestPackedKernelOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randCSR(rng, 2000, 128, 0.15)
	w := make([]float64, m.Dim)
	cum := make([]float64, m.Dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"seq", 1}, {"cores4", 4},
	} {
		// Warm up: pool scratch, the matrix's cached column view.
		CSRGrad(CSRLogistic, m, nil, w, cum, cfg.workers)
		allocs := testing.AllocsPerRun(50, func() {
			CSRGrad(CSRLogistic, m, nil, w, cum, cfg.workers)
		})
		if allocs != 0 {
			t.Errorf("packed row loop (%s): %.1f allocs/op, want 0", cfg.name, allocs)
		}
	}
}

// benchCSR builds the dense-profile shape used by the compute sweep:
// uniform rows of ~15-20 entries.
func benchCSR(rows, dim int) (*CSRMatrix, []float64) {
	rng := rand.New(rand.NewSource(6))
	b := NewCSRBuilder(dim, rows, rows*18)
	for r := 0; r < rows; r++ {
		b.StartRow(float64(rng.Intn(2)))
		nnz := 15 + rng.Intn(6)
		stride := dim / nnz
		for j := 0; j < nnz; j++ {
			if err := b.AppendEntry(int32(j*stride+rng.Intn(stride)), rng.NormFloat64()); err != nil {
				panic(err)
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return m, w
}

func BenchmarkGradPerPoint(b *testing.B) {
	m, w := benchCSR(20000, 1000)
	cum := make([]float64, m.Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refGrad(CSRLogistic, m, nil, w, cum)
	}
	b.ReportMetric(float64(m.Rows())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkGradPacked(b *testing.B) {
	m, w := benchCSR(20000, 1000)
	cum := make([]float64, m.Dim)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "c1", 4: "c4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CSRGrad(CSRLogistic, m, nil, w, cum, workers)
			}
			b.ReportMetric(float64(m.Rows())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
