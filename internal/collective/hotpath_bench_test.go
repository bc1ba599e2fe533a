package collective

// Microbenchmarks for the reduction hot path. These are the before/after
// evidence for the zero-allocation work: run with
//
//	go test -bench 'Hot|SerdeF64' -benchmem ./internal/collective
//
// and compare allocs/op against the numbers recorded in DESIGN.md
// ("Performance notes").

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sparker/internal/comm"
	"sparker/internal/serde"
	"sparker/internal/transport"
)

// BenchmarkRingReduceScatterHot drives the steady-state reduction data
// plane: N=4 ranks on the mem transport, 1 MiB float64 segments, P
// parallel channels — the configuration the paper's Figure 14 sweeps.
func BenchmarkRingReduceScatterHot(b *testing.B) {
	const (
		n      = 4
		segLen = 1 << 17 // 131072 float64 = 1 MiB per segment
	)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			net := transport.NewMem()
			defer net.Close()
			eps, err := comm.NewGroup(net, fmt.Sprintf("hot-%d", p), n)
			if err != nil {
				b.Fatal(err)
			}
			defer comm.CloseGroup(eps)
			inputs := make([][][]float64, n)
			for r := range inputs {
				inputs[r] = make([][]float64, p*n)
				for i := range inputs[r] {
					seg := make([]float64, segLen)
					for j := range seg {
						seg[j] = float64(j%17) * 0.25
					}
					inputs[r][i] = seg
				}
			}
			// Bytes moved per op per rank: (n-1) steps × p channels × one
			// wire segment.
			b.SetBytes(int64((n - 1) * p * (4 + 8*segLen)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, e := range eps {
					wg.Add(1)
					go func(e *comm.Endpoint) {
						defer wg.Done()
						if _, err := RingReduceScatter(context.Background(), e, inputs[e.Rank()], p, F64Ops()); err != nil {
							b.Error(err)
						}
					}(e)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkSerdeF64RoundTrip measures one encode+decode of a 1 MiB
// []float64 segment, reusing the wire buffer's capacity across
// iterations the way the ring loop does.
func BenchmarkSerdeF64RoundTrip(b *testing.B) {
	const segLen = 1 << 17
	seg := make([]float64, segLen)
	for j := range seg {
		seg[j] = float64(j%31) * 0.5
	}
	var wire []byte
	b.SetBytes(int64(4 + 8*segLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = encodeF64(wire[:0], seg)
		out, err := decodeF64(wire)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != segLen {
			b.Fatalf("round trip lost data: %d", len(out))
		}
	}
}

// BenchmarkSerdeF64FusedDecodeReduce is the same round trip through the
// fused decode-reduce path the ring loops use: no intermediate decoded
// slice, zero allocations at steady state.
func BenchmarkSerdeF64FusedDecodeReduce(b *testing.B) {
	const segLen = 1 << 17
	seg := make([]float64, segLen)
	acc := make([]float64, segLen)
	for j := range seg {
		seg[j] = float64(j%31) * 0.5
	}
	var wire []byte
	b.SetBytes(int64(4 + 8*segLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = encodeF64(wire[:0], seg)
		var err error
		acc, err = decodeReduceIntoF64(acc, wire)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackedChunk is the evidence behind the ½ rule: one 62 500-
// element chunk (a wide-workload ring segment) at five densities through
// the counting pass, the packed encode (count + pack, what a packed
// frame costs the sender) and the packed decode-reduce, next to the
// dense encode and decode-reduce of the same chunk. encode-support is
// the packed encode given the chunk's exact support: it reads only the
// non-zero elements while they are at most the ½ limit, and scans above
// it. MB/s is always over the chunk's dense 8·n bytes, so rows compare
// directly: a packed row above its dense row means packing that chunk
// costs less CPU than shipping it whole, before a single wire byte is
// saved. The chunk is cache-resident; BenchmarkPackedChunkCold is the
// same encode with the data in DRAM.
func BenchmarkPackedChunk(b *testing.B) {
	const n = 62500
	dense := make([]byte, 0, 8*n)
	packed := make([]byte, 0, 8*(serde.PackedWords(n)+n))
	acc := make([]float64, n)
	for _, pct := range []int{1, 5, 20, 50, 100} {
		rng := rand.New(rand.NewSource(int64(pct)))
		v := make([]float64, n)
		sup := make([]uint64, serde.PackedWords(n))
		for _, j := range rng.Perm(n)[:n*pct/100] {
			v[j] = rng.NormFloat64()
			sup[j>>6] |= 1 << uint(j&63)
		}
		run := func(name string, fn func()) {
			b.Run(fmt.Sprintf("%s/density=%d%%", name, pct), func(b *testing.B) {
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					fn()
				}
			})
		}
		run("count", func() { sinkInt = serde.PackedSizeF64(v, 0, n, nil, 0) })
		run("encode-dense", func() { dense = encodeChunkF64(dense[:0], v, 0, n) })
		run("encode-packed", func() {
			sinkInt = serde.PackedSizeF64(v, 0, n, nil, 0)
			packed = serde.EncodePackedF64(packed[:0], v, 0, n, nil, 0)
		})
		run("encode-support", func() {
			sinkInt = serde.PackedSizeF64(v, 0, n, sup, 0)
			packed = serde.EncodePackedF64(packed[:0], v, 0, n, sup, 0)
		})
		run("reduce-dense", func() {
			if err := decodeReduceChunkF64(acc, 0, dense); err != nil {
				b.Fatal(err)
			}
		})
		run("reduce-packed", func() {
			if err := f64Packed.DecodeReduceChunkInto(acc, 0, n, packed); err != nil {
				b.Fatal(err)
			}
		})
	}
}

var sinkInt int
