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
// scan's bytes, and stays within the size it promised — through serde's
// candidate API, and through a dense view body (serde.Body.View) whose
// Bits are cand's bits over the range, and over all of v, with the range
// at element off of the body.
func requireSupportMatchesScan(t *testing.T, v []float64, off, n int, cand []uint64, bit int) {
	t.Helper()
	scan := serde.PackedSizeF64(v, off, n, nil, 0)
	want := []byte(nil)
	if scan > 0 {
		want = serde.EncodePackedF64(make([]byte, 0, scan), v, off, n, nil, 0)
	}
	check := func(from string, sized int, encode func(dst []byte) []byte) {
		t.Helper()
		if (scan > 0) != (sized > 0) {
			t.Fatalf("n=%d bit=%d: the scan sizes %d bytes, %s %d", n, bit, scan, from, sized)
		}
		if scan == 0 {
			return
		}
		if sized < scan {
			t.Fatalf("n=%d bit=%d: %s sizes %d bytes, under the exact %d", n, bit, from, sized, scan)
		}
		// A capacity of exactly the promised size: writing past it panics.
		if got := encode(make([]byte, 0, sized)); !bytes.Equal(got, want) {
			t.Fatalf("n=%d bit=%d: encoding from %s changed the bytes (%d vs %d)", n, bit, from, len(got), len(want))
		}
	}
	check("the support", serde.PackedSizeF64(v, off, n, cand, bit), func(dst []byte) []byte {
		return serde.EncodePackedF64(dst, v, off, n, cand, bit)
	})
	var b serde.Body
	b.View(v[off:off+n], cand, bit)
	check("a view", b.PackedSize(0, n), func(dst []byte) []byte { return b.AppendPacked(dst, 0, n) })
	if bit >= off {
		b.View(v, cand, bit-off)
		check("a view of all of v", b.PackedSize(off, n), func(dst []byte) []byte { return b.AppendPacked(dst, off, n) })
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

// viewSource is a Segments of dense views (serde.Body.View) of a rank's
// segments, their candidates cand over the segments' concatenation
// (nil: none), in one body per segment that every ring reuses.
type viewSource struct {
	segs   [][]float64
	cand   []uint64
	first  []int
	bodies []serde.Body
}

func newViewSource(segs [][]float64, cand []uint64) *viewSource {
	s := &viewSource{segs: segs, cand: cand, first: make([]int, len(segs)), bodies: make([]serde.Body, len(segs))}
	for i := 1; i < len(segs); i++ {
		s.first[i] = s.first[i-1] + len(segs[i-1])
	}
	return s
}

func (s *viewSource) Elems(i int) int { return len(s.segs[i]) }

func (s *viewSource) Take(i, _ int) *serde.Body {
	s.bodies[i].View(s.segs[i], s.cand, s.first[i])
	return &s.bodies[i]
}

func (s *viewSource) Give(int, int, *serde.Body) {}

// TestRingSupportMatchesScan: reduce-scatter over dense views of the
// segments with candidate bits (BodyOps) owns what RingReduceScatter over
// F64Ops, which scans, owns — bit for bit, in the views' memory — in the
// same steps and with the same bytes on the wire; and each owned body's
// Bits still cover every element that is not +0.0. At P = 1 and 4,
// whole-segment and chunked (1000-element chunks); over sparse data
// that packs and data that stays dense, with −0.0, NaN payloads and
// subnormals among it; with candidates that are exact, a random
// superset, and none. One element of every segment holds 1e16, 1 and
// −1e16 on three ranks, so a merge that reordered the adds would change
// its sum.
func TestRingSupportMatchesScan(t *testing.T) {
	const n, segLen = 4, 3001
	rng := rand.New(rand.NewSource(31))
	for _, p := range []int{1, 4} {
		for _, chunkBytes := range []int{-1, 8000} {
			for _, data := range []struct {
				name    string
				density densePattern
			}{{"sparse", uniform(0.02)}, {"dense", headDense}} {
				inputs := makeSparseInputs(rng, n, p*n, segLen, data.density, true)
				for i := 0; i < p*n; i++ {
					for r, x := range []float64{1e16, 1, -1e16, 0} {
						inputs[r][i][segLen/3] = x
					}
				}
				// run reduces a copy of inputs, through views with the
				// candidates cand gives a rank's concatenated segments when
				// cand is set, and returns each rank's owned segments and the
				// ring's frames (wire B, raw B, steps).
				run := func(name string, cand func(all []float64) []uint64) ([]map[int][]float64, [3]int64) {
					cp := deepCopySegs(inputs)
					owned := make([]map[int][]float64, n)
					regs := make([]*metrics.Registry, n)
					cands := make([][]uint64, n)
					for r := 0; cand != nil && r < n; r++ {
						cands[r] = cand(slices.Concat(cp[r]...))
					}
					runGroup(t, n, name, func(e *comm.Endpoint) error {
						r := e.Rank()
						regs[r] = metrics.NewRegistry()
						ctx := metrics.NewContext(WithChunkBytes(context.Background(), chunkBytes), regs[r])
						if cand == nil {
							var err error
							owned[r], err = RingReduceScatter(ctx, e, cp[r], p, F64Ops())
							return err
						}
						bodies, err := RingReduceScatterFrom(ctx, e, newViewSource(cp[r], cands[r]), p, BodyOps())
						owned[r] = map[int][]float64{}
						for i, b := range bodies {
							if !b.Dense || &b.Vals[0] != &cp[r][i][0] {
								return fmt.Errorf("owned segment %d is not its view", i)
							}
							for j, x := range b.Vals {
								if b.Bits != nil && math.Float64bits(x) != 0 && b.Bits[j>>6]>>uint(j&63)&1 == 0 {
									return fmt.Errorf("element %d of owned segment %d is not +0.0 and its bit is clear", j, i)
								}
							}
							owned[r][i] = cp[r][i]
						}
						return err
					})
					var frames [3]int64
					for _, reg := range regs {
						frames[0] += reg.Histogram(metrics.HistRingStepBytes).Sum()
						frames[1] += reg.Histogram(metrics.HistRingStepRawBytes).Sum()
						frames[2] += reg.Histogram(metrics.HistRingStepNS).Count()
					}
					return owned, frames
				}
				label := fmt.Sprintf("P=%d/chunk=%d/%s", p, chunkBytes, data.name)
				want, wantFrames := run("scan-"+label, nil)
				for _, c := range []struct {
					name string
					cand func(all []float64) []uint64
				}{
					{"exact", func(all []float64) []uint64 { return supersetOf(all, 0, nil)[:serde.PackedWords(len(all))] }},
					{"superset", func(all []float64) []uint64 {
						extra := make([]byte, 61)
						rng.Read(extra)
						for i := range extra {
							extra[i] &= byte(rng.Intn(256)) // about a quarter of the zeros
						}
						return supersetOf(all, 0, extra)[:serde.PackedWords(len(all))]
					}},
					{"none", func([]float64) []uint64 { return nil }},
				} {
					got, gotFrames := run(c.name+"-"+label, c.cand)
					if gotFrames != wantFrames {
						t.Errorf("%s/%s: frames (wire B, raw B, steps) %v from the views, %v from the scan", label, c.name, gotFrames, wantFrames)
					}
					for r := range want {
						if len(got[r]) != len(want[r]) {
							t.Fatalf("%s/%s rank %d: owns %d segments, want %d", label, c.name, r, len(got[r]), len(want[r]))
						}
						for i, seg := range want[r] {
							requireBitwiseEqual(t, fmt.Sprintf("%s/%s rank %d segment %d", label, c.name, r, i), got[r][i], seg)
						}
					}
				}
			}
		}
	}
}

// denseSource is a Segments over a rank's segments as a compact
// aggregator holds them — the values at the set bits of sup, +0.0
// elsewhere — built into a fresh buffer when the ring takes a segment.
// It checks the ring's side of the contract: each segment taken once by
// its own block's channel, and given back once after it was taken.
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
}

// TestRingSourceMatchesSlice: reduce-scatter from a source that builds
// each segment when the ring takes it returns what the []V call returns
// over the same segments — the same owned segments, bit for bit, and the
// same frames (wire bytes, dense equivalent and step count) — and takes
// and gives back the segments as Segments promises: every segment once,
// the owned ones never given back, the rest given back once — with dense
// and packed chunks in every train (headDense), and −0.0 and NaN payloads
// among the values.
func TestRingSourceMatchesSlice(t *testing.T) {
	const n, segLen = 4, 3001
	for _, p := range []int{1, 3} {
		inputs := makeSparseInputs(rand.New(rand.NewSource(int64(41+p))), n, p*n, segLen, headDense, true)
		run := func(name string, fromSource bool) ([]map[int][]float64, [3]int64, []*denseSource) {
			cp := deepCopySegs(inputs)
			owned := make([]map[int][]float64, n)
			regs := make([]*metrics.Registry, n)
			srcs := make([]*denseSource, n)
			runGroup(t, n, name, func(e *comm.Endpoint) error {
				r := e.Rank()
				regs[r] = metrics.NewRegistry()
				ctx := metrics.NewContext(WithChunkBytes(context.Background(), 8000), regs[r]) // 1000-element chunks
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
			return owned, frames, srcs
		}
		want, wantFrames, _ := run(fmt.Sprintf("src-slice-%d", p), false)
		got, gotFrames, srcs := run(fmt.Sprintf("src-source-%d", p), true)
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
