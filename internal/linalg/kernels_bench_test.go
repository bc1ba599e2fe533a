package linalg_test

// BenchmarkLinalgKernels measures the dense BLAS-1 kernels MLlib's
// gradient inner loop hits millions of times per pass, and the fused
// gradient kernel on one partition of the benchmark's wide workloads.
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
	// One executor's share of wide-split-tcp: 5 000 of the 20 000
	// power-law rows over 1 M features, ~68 k entries in ~56 k distinct
	// columns, full batch on one core.
	b.Run("csrgrad/wide", func(b *testing.B) {
		const features = 1_000_000
		m, err := mllib.PackPoints(0, features, data.GenClassification(data.ClassificationSpec{
			Samples: 5_000, Features: features, NNZPerSample: 15, NNZAlpha: 1.5, Seed: 1,
		}))
		if err != nil {
			b.Fatal(err)
		}
		w, cum := make([]float64, features), make([]float64, features)
		linalg.CSRGrad(linalg.CSRLogistic, m, nil, w, cum, 1) // builds the cached column view
		b.ReportAllocs()
		b.ResetTimer()
		var s float64
		for i := 0; i < b.N; i++ {
			loss, _ := linalg.CSRGrad(linalg.CSRLogistic, m, nil, w, cum, 1)
			s += loss
		}
		sinkF64 = s
	})
}

var sinkF64 float64
