package collective_test

import (
	"fmt"
	"testing"

	"sparker/internal/collective"
	"sparker/internal/data"
	"sparker/internal/serde"
)

// BenchmarkPackedChunkCold is BenchmarkPackedChunk's encode rows with the
// data cold in DRAM, as a ring step meets it: 32 wide aggregators
// (1 000 002 elements, 256 MB in all) cut into the benchmark's 16 ring
// segments, each iteration encoding the next of the 512 segments. The
// aggregators hold the gradient support of the first 1–4 partitions of
// the wide-split-tcp data (GenClassification at seed 2, four contiguous
// partitions of 5 000 rows) — one executor's accumulator up to the fully
// reduced union. encode-packed is the scan (probe, count, mask) of F64Ops;
// encode-support makes the segment a dense view body whose Bits are the
// union's share, as the f64 plane's ring takes it, and reads only those
// candidates. support% is the union's share of the aggregator.
func BenchmarkPackedChunkCold(b *testing.B) {
	const (
		samples, features, parts = 20_000, 1_000_000, 4
		dim                      = features + 2
		aggs, segs               = 32, 16
	)
	points := data.GenClassification(data.ClassificationSpec{
		Samples: samples, Features: features, NNZPerSample: 15, NNZAlpha: 1.5, Seed: 2,
	})
	vals := make([][]float64, aggs)
	for a := range vals {
		vals[a] = make([]float64, dim)
	}
	sup := make([]uint64, serde.PackedWords(dim))
	packed := collective.F64Ops().Packed
	var view serde.Body
	buf := make([]byte, 0, 8*(serde.PackedWords(dim)+dim))
	for k := 1; k <= parts; k++ {
		// Widen the support to the first k partitions: each aggregator
		// gets a value wherever one of their rows stores a column.
		for _, p := range points[(k-1)*samples/parts : k*samples/parts] {
			for _, j := range p.Features.Indices {
				sup[j>>6] |= 1 << uint(j&63)
				for a := range vals {
					vals[a][j] = float64(a+1) * p.Features.Values[0]
				}
			}
		}
		set := 0
		for j := 0; j < dim; j++ {
			set += int(sup[j>>6] >> uint(j&63) & 1)
		}
		for _, row := range []struct {
			name   string
			encode func(v []float64, lo, hi int)
		}{
			{"encode-packed", func(v []float64, lo, hi int) {
				if packed.ChunkSize(v[lo:hi], 0, hi-lo) > 0 {
					buf = packed.EncodeChunkTo(buf[:0], v[lo:hi], 0, hi-lo)
				}
			}},
			{"encode-support", func(v []float64, lo, hi int) {
				view.View(v[lo:hi], sup, lo)
				if view.PackedSize(0, hi-lo) > 0 {
					buf = view.AppendPacked(buf[:0], 0, hi-lo)
				}
			}},
		} {
			b.Run(fmt.Sprintf("%s/partitions=%d", row.name, k), func(b *testing.B) {
				b.SetBytes(8 * dim / segs)
				for i := 0; i < b.N; i++ {
					// As the ring calls it: the segment is the chunk.
					s := i / aggs % segs
					row.encode(vals[i%aggs], s*dim/segs, (s+1)*dim/segs)
				}
				b.ReportMetric(100*float64(set)/dim, "support%")
			})
		}
	}
}
