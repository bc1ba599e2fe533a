package collective

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/serde"
)

// supersetOf is a support for v placed at bit bit: every non-zero word
// of v, plus element i wherever bit i of extra (cycled) is set, plus
// every bit outside [bit, bit+len(v)), which the encoder must not read.
func supersetOf(v []float64, bit int, extra []byte) []uint64 {
	sup := make([]uint64, serde.PackedWords(bit+len(v))+1)
	for i := range sup {
		sup[i] = ^uint64(0)
	}
	for i := range v {
		b := bit + i
		if math.Float64bits(v[i]) == 0 && (len(extra) == 0 || extra[i/8%len(extra)]>>uint(i%8)&1 == 0) {
			sup[b>>6] &^= 1 << uint(b&63)
		}
	}
	return sup
}

// requireSupportMatchesScan: sizing and encoding v[off:off+n] from the
// candidates cand (at bit) chooses what the scan chooses, produces the
// scan's bytes, and stays within the size it promised; so does the
// taking encoder (serde.TakePackedF64), which also leaves the range, and
// nothing else, +0.0.
func requireSupportMatchesScan(t *testing.T, v []float64, off, n int, cand []uint64, bit int) {
	t.Helper()
	scan := serde.PackedSizeF64(v, off, n, nil, 0)
	sized := serde.PackedSizeF64(v, off, n, cand, bit)
	if (scan > 0) != (sized > 0) {
		t.Fatalf("n=%d bit=%d: the scan sizes %d bytes, the support %d", n, bit, scan, sized)
	}
	if scan == 0 {
		return
	}
	if sized < scan {
		t.Fatalf("n=%d bit=%d: the support sizes %d bytes, under the exact %d", n, bit, sized, scan)
	}
	want := serde.EncodePackedF64(make([]byte, 0, scan), v, off, n, nil, 0)
	// A capacity of exactly the promised size: writing past it panics.
	got := serde.EncodePackedF64(make([]byte, 0, sized), v, off, n, cand, bit)
	if !bytes.Equal(got, want) {
		t.Fatalf("n=%d bit=%d: encoding from the support changed the bytes (%d vs %d)", n, bit, len(got), len(want))
	}
	taken := slices.Clone(v)
	if got := serde.TakePackedF64(make([]byte, 0, sized), taken, off, n, cand, bit); !bytes.Equal(got, want) {
		t.Fatalf("n=%d bit=%d: the taking encoder changed the bytes (%d vs %d)", n, bit, len(got), len(want))
	}
	for i := range v {
		want := math.Float64bits(v[i])
		if i >= off && i < off+n {
			want = 0
		}
		if math.Float64bits(taken[i]) != want {
			t.Fatalf("n=%d bit=%d: the taking encoder left element %d as %#x", n, bit, i, math.Float64bits(taken[i]))
		}
	}
}

// TestSupportEncodeMatchesScan: whatever superset of the non-zero
// elements the support is, the encoder makes the scan's choice and
// writes the scan's bytes — over densities from empty to full; with
// −0.0, NaN payloads, subnormals and exact +0.0 among the candidates;
// at bit offsets that are not multiples of 64; around the 64-element
// word at n = 63/64/65; at the ½ limit ±1; and where the scan's probe
// fires on a chunk its count would have packed.
func TestSupportEncodeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	specials := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64}
	fill := func(n int, density float64) []float64 {
		v := make([]float64, n+2) // a guard element either side
		v[0], v[n+1] = 1, 1
		for i := 1; i <= n; i++ {
			if rng.Float64() < density {
				v[i] = rng.NormFloat64()
				if rng.Intn(8) == 0 {
					v[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		return v
	}
	widen := func(q float64) []byte {
		if q == 0 {
			return nil
		}
		extra := make([]byte, 97)
		for i := range extra {
			for b := 0; b < 8; b++ {
				if rng.Float64() < q {
					extra[i] |= 1 << uint(b)
				}
			}
		}
		return extra
	}
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096, 62500} {
		for _, density := range []float64{0, 0.01, 0.05, 0.2, 0.45, 0.5, 0.55, 1} {
			for _, q := range []float64{0, 0.02, 0.3} {
				for _, bit := range []int{0, 1, 63, 64, 100, 129} {
					t.Run(fmt.Sprintf("n=%d/d=%v/widen=%v/bit=%d", n, density, q, bit), func(t *testing.T) {
						v := fill(n, density)
						requireSupportMatchesScan(t, v, 1, n, supersetOf(v[1:n+1], bit, widen(q)), bit)
					})
				}
			}
		}
	}
	// The ½ limit ±1 non-zero words, with the exact support and with one
	// more candidate that holds +0.0.
	for _, n := range []int{63, 64, 65, 1000, 4096} {
		limit := n/2 - serde.PackedWords(n) // the ½ rule
		for _, nnz := range []int{limit - 1, limit, limit + 1} {
			for _, bit := range []int{0, 37} {
				v := make([]float64, n+2)
				perm := rng.Perm(n)
				for _, j := range perm[:nnz] {
					v[1+j] = float64(j + 1)
				}
				exact := supersetOf(v[1:n+1], bit, nil)
				requireSupportMatchesScan(t, v, 1, n, exact, bit)
				b := bit + perm[nnz]
				exact[b>>6] |= 1 << uint(b&63)
				requireSupportMatchesScan(t, v, 1, n, exact, bit)
			}
		}
	}
	// Non-zeros exactly where the probe looks: the scan calls the chunk
	// dense at the probe although it would pack, and so must the support.
	v := make([]float64, 4096)
	for i := 0; i < len(v); i += 17 { // serde's probe stride
		v[i] = 1
	}
	if serde.PackedSizeF64(v, 0, len(v), nil, 0) != 0 {
		t.Fatal("the probe no longer fires on a stride-17 chunk; pick a chunk it does fire on")
	}
	requireSupportMatchesScan(t, v, 0, len(v), supersetOf(v, 5, nil), 5)
}

// TestRingSupportMatchesScan: a reduce-scatter run with a support per
// rank returns what the same run returns without one, puts the same
// bytes on the wire, and leaves every rank's bitmap covering its owned
// segments' results.
func TestRingSupportMatchesScan(t *testing.T) {
	const n, p, segLen = 4, 2, 3001
	inputs := makeSparseInputs(rand.New(rand.NewSource(31)), n, p*n, segLen, headDense, true)
	run := func(name string, withSup bool) ([]map[int][]float64, [][]uint64, int64) {
		cp := deepCopySegs(inputs)
		sups := make([][]uint64, n)
		owned := make([]map[int][]float64, n)
		regs := make([]*metrics.Registry, n)
		runGroup(t, n, name, func(e *comm.Endpoint) error {
			regs[e.Rank()] = metrics.NewRegistry()
			ctx := metrics.NewContext(WithChunkBytes(context.Background(), 8000), regs[e.Rank()]) // 1000-element chunks
			if withSup {
				var all []float64
				for _, s := range cp[e.Rank()] {
					all = append(all, s...)
				}
				sups[e.Rank()] = supersetOf(all, 0, []byte{0, 0, 0, 0x10})[:serde.PackedWords(len(all))]
				ctx = WithSupport(ctx, sups[e.Rank()])
			}
			var err error
			owned[e.Rank()], err = RingReduceScatter(ctx, e, cp[e.Rank()], p, F64Ops())
			return err
		})
		var wire int64
		for _, reg := range regs {
			wire += reg.Histogram(metrics.HistRingStepBytes).Sum()
		}
		return owned, sups, wire
	}
	want, _, wantWire := run("sup-scan", false)
	got, sups, gotWire := run("sup-support", true)
	if gotWire != wantWire {
		t.Errorf("wire bytes %d with the support, %d without", gotWire, wantWire)
	}
	for r := range want {
		for i, seg := range want[r] {
			requireBitwiseEqual(t, fmt.Sprintf("rank %d segment %d", r, i), got[r][i], seg)
			for j, x := range got[r][i] {
				if b := i*segLen + j; math.Float64bits(x) != 0 && sups[r][b>>6]>>uint(b&63)&1 == 0 {
					t.Fatalf("rank %d: element %d of owned segment %d is non-zero outside the support", r, j, i)
				}
			}
		}
	}
}

// denseSource is a Segments over a rank's segments as a compact
// aggregator holds them — the values at the set bits of sup, +0.0
// elsewhere — built into a fresh buffer when the ring takes a segment.
// It checks the ring's side of the contract: each segment taken once by
// its own block's channel, given back once after it was taken, and all
// +0.0 (F64Ops pack, so the ring's send cleared it).
type denseSource struct {
	segs   [][]float64
	n      int
	mu     sync.Mutex
	taken  map[int]bool
	given  map[int]bool
	failed string
}

func (s *denseSource) Elems(i int) int { return len(s.segs[i]) }

func (s *denseSource) Take(i, ch int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.taken[i] || i/s.n != ch {
		s.failed = fmt.Sprintf("segment %d taken twice or by channel %d", i, ch)
	}
	s.taken[i] = true
	return slices.Clone(s.segs[i])
}

func (s *denseSource) Give(i, ch int, v []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.taken[i] || s.given[i] || i/s.n != ch {
		s.failed = fmt.Sprintf("segment %d given back twice, untaken, or by channel %d", i, ch)
	}
	s.given[i] = true
	for j, x := range v {
		if math.Float64bits(x) != 0 {
			s.failed = fmt.Sprintf("segment %d given back with element %d not +0.0", i, j)
		}
	}
}

// TestRingSourceMatchesSlice: reduce-scatter from a source that builds
// each segment when the ring takes it returns what the []V call returns
// over the same segments — the same owned segments, bit for bit, the
// same support left in the caller's bitmap, and the same frames (wire
// bytes, dense equivalent and step count) — and takes and gives back
// the segments as Segments promises: every segment once, the owned ones
// never given back, the rest given back once and all +0.0 — with dense
// and packed chunks in every train (headDense), and −0.0 and NaN
// payloads among the values.
func TestRingSourceMatchesSlice(t *testing.T) {
	const n, segLen = 4, 3001
	for _, p := range []int{1, 3} {
		inputs := makeSparseInputs(rand.New(rand.NewSource(int64(41+p))), n, p*n, segLen, headDense, true)
		run := func(name string, fromSource bool) ([]map[int][]float64, [][]uint64, [3]int64, []*denseSource) {
			cp := deepCopySegs(inputs)
			sups := make([][]uint64, n)
			owned := make([]map[int][]float64, n)
			regs := make([]*metrics.Registry, n)
			srcs := make([]*denseSource, n)
			runGroup(t, n, name, func(e *comm.Endpoint) error {
				r := e.Rank()
				regs[r] = metrics.NewRegistry()
				ctx := metrics.NewContext(WithChunkBytes(context.Background(), 8000), regs[r]) // 1000-element chunks
				var all []float64
				for _, s := range cp[r] {
					all = append(all, s...)
				}
				sups[r] = supersetOf(all, 0, []byte{0, 0, 0, 0x10})[:serde.PackedWords(len(all))]
				ctx = WithSupport(ctx, sups[r])
				var err error
				if fromSource {
					srcs[r] = &denseSource{segs: cp[r], n: n, taken: map[int]bool{}, given: map[int]bool{}}
					owned[r], err = RingReduceScatterFrom(ctx, e, srcs[r], p, F64Ops())
				} else {
					owned[r], err = RingReduceScatter(ctx, e, cp[r], p, F64Ops())
				}
				return err
			})
			var frames [3]int64
			for _, reg := range regs {
				frames[0] += reg.Histogram(metrics.HistRingStepBytes).Sum()
				frames[1] += reg.Histogram(metrics.HistRingStepRawBytes).Sum()
				frames[2] += reg.Histogram(metrics.HistRingStepNS).Count()
			}
			return owned, sups, frames, srcs
		}
		want, wantSups, wantFrames := func() ([]map[int][]float64, [][]uint64, [3]int64) {
			o, s, f, _ := run(fmt.Sprintf("src-slice-%d", p), false)
			return o, s, f
		}()
		got, gotSups, gotFrames, srcs := run(fmt.Sprintf("src-source-%d", p), true)
		if gotFrames != wantFrames {
			t.Errorf("P=%d: frames (wire B, raw B, steps) %v from the source, %v from the slice", p, gotFrames, wantFrames)
		}
		for r := range want {
			if len(got[r]) != p {
				t.Fatalf("P=%d rank %d: owns %d segments from the source, want %d", p, r, len(got[r]), p)
			}
			for i, seg := range want[r] {
				requireBitwiseEqual(t, fmt.Sprintf("P=%d rank %d segment %d", p, r, i), got[r][i], seg)
			}
			if !slices.Equal(gotSups[r], wantSups[r]) {
				t.Errorf("P=%d rank %d: the ring left a different support", p, r)
			}
			s := srcs[r]
			if s.failed != "" {
				t.Fatalf("P=%d rank %d: %s", p, r, s.failed)
			}
			for i := range s.segs {
				_, owns := got[r][i]
				if !s.taken[i] || s.given[i] == owns {
					t.Fatalf("P=%d rank %d segment %d: taken %v, given back %v, owned %v", p, r, i, s.taken[i], s.given[i], owns)
				}
			}
		}
	}
}
