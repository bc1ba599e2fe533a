package linalg_test

// BenchmarkLinalgKernels measures the dense BLAS-1 kernels MLlib's
// gradient inner loop hits millions of times per pass, and the fused
// gradient kernel on one partition of each benchmark workload shape, and
// on the wide one in its own column space (CompactColumns).
// Run with
//
//	go test -bench LinalgKernels -benchmem ./internal/linalg

import (
	"testing"

	"sparker/internal/data"
	"sparker/internal/linalg"
	"sparker/internal/mllib"
)

func BenchmarkLinalgKernels(b *testing.B) {
	const dim = 1 << 14 // 16384-dim weight vector
	x := make([]float64, dim)
	y := make([]float64, dim)
	for i := range x {
		x[i] = float64(i%13) * 0.5
		y[i] = float64(i%7) * 0.25
	}
	b.Run("DotDense", func(b *testing.B) {
		b.SetBytes(int64(16 * dim))
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += linalg.DotDense(x, y)
		}
		sinkF64 = s
	})
	b.Run("AxpyDense", func(b *testing.B) {
		b.SetBytes(int64(16 * dim))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.AxpyDense(1e-9, x, y)
		}
	})
	b.Run("Scal", func(b *testing.B) {
		b.SetBytes(int64(8 * dim))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.Scal(1.0, x)
		}
	})
	b.Run("AddAssign", func(b *testing.B) {
		b.SetBytes(int64(16 * dim))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.AddAssign(y, x)
		}
	})
	b.Run("Norm2", func(b *testing.B) {
		b.SetBytes(int64(8 * dim))
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += linalg.Norm2(x)
		}
		sinkF64 = s
	})
	// One executor's partition of each benchmark workload shape, full
	// batch, as one task runs it: wide is 5 000 of wide-split-tcp's
	// 20 000 power-law rows over 1 M features (~68 k entries in ~56 k
	// distinct columns), tall 100 000 of tall-split-mem's 400 000 rows ×
	// 2 000 features × 30, tiny 2 000 of tiny-split-mem's 8 000 rows ×
	// 512 features × 15.
	for _, s := range []struct {
		name                string
		rows, features, nnz int
		alpha               float64
	}{
		{"wide", 5_000, 1_000_000, 15, 1.5},
		{"tall", 100_000, 2_000, 30, 0},
		{"tiny", 2_000, 512, 15, 0},
	} {
		b.Run("csrgrad/"+s.name, func(b *testing.B) {
			m, err := mllib.PackPoints(0, s.features, data.GenClassification(data.ClassificationSpec{
				Samples: s.rows, Features: s.features, NNZPerSample: s.nnz, NNZAlpha: s.alpha, Seed: 1,
			}))
			if err != nil {
				b.Fatal(err)
			}
			w, cum := make([]float64, s.features), make([]float64, s.features)
			b.ReportAllocs()
			b.ResetTimer()
			var sum float64
			for i := 0; i < b.N; i++ {
				loss, _ := linalg.CSRGrad(linalg.CSRLogistic, m, nil, w, cum, 1)
				sum += loss
			}
			sinkF64 = sum
		})
	}
	// The wide row as a tree task folds it: wide-tree-tcp's first
	// partition at seed 2 (5 000 of its 20 000 rows, ~55 k distinct
	// columns) in its own column space — w gathered at the block's column
	// dictionary, then the pass into a compact accumulator cleared first.
	b.Run("csrgrad/wide-local", func(b *testing.B) {
		const features = 1_000_000
		pts := data.GenClassification(data.ClassificationSpec{
			Samples: 20_000, Features: features, NNZPerSample: 15, NNZAlpha: 1.5, Seed: 2,
		})
		m, err := mllib.PackPoints(0, features, pts[:5_000])
		if err != nil {
			b.Fatal(err)
		}
		sup := make([]uint64, (features+63)/64)
		for _, j := range m.Indices {
			sup[j>>6] |= 1 << uint(j&63)
		}
		local, cols := linalg.CompactColumns(m, sup)
		w := make([]float64, features)
		lw, acc := make([]float64, len(cols)), make([]float64, len(cols)+2)
		b.ReportAllocs()
		b.ResetTimer()
		var sum float64
		for i := 0; i < b.N; i++ {
			for k, j := range cols {
				lw[k] = w[j]
			}
			clear(acc)
			loss, _ := linalg.CSRGrad(linalg.CSRLogistic, local, nil, lw, acc, 1)
			sum += loss
		}
		sinkF64 = sum
	})
}

// BenchmarkPackPoints packs one executor's partition of the tall and wide
// benchmark shapes (the rows csrgrad/tall and csrgrad/wide fold) into
// the block the executor stores, as a training run's first task does.
// Run with
//
//	go test -run xxx -bench PackPoints -benchmem ./internal/linalg
func BenchmarkPackPoints(b *testing.B) {
	for _, s := range []struct {
		name                string
		rows, features, nnz int
		alpha               float64
	}{
		{"tall", 100_000, 2_000, 30, 0},
		{"wide", 5_000, 1_000_000, 15, 1.5},
	} {
		b.Run(s.name, func(b *testing.B) {
			pts := data.GenClassification(data.ClassificationSpec{
				Samples: s.rows, Features: s.features, NNZPerSample: s.nnz, NNZAlpha: s.alpha, Seed: 1,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mllib.PackPoints(0, s.features, pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var sinkF64 float64
