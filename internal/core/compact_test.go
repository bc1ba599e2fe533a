package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"sparker/internal/collective"
	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/serde"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// compactOf is the compact form of dense: its support (the elements
// whose bits are not +0.0, plus each element i with keep(i)) and the
// values at the support's set bits.
func compactOf(dense []float64, keep func(i int) bool) (vals []float64, sup []uint64) {
	sup = make([]uint64, serde.PackedWords(len(dense)))
	for i, x := range dense {
		if math.Float64bits(x) != 0 || keep(i) {
			sup[i>>6] |= 1 << uint(i&63)
			vals = append(vals, x)
		}
	}
	return vals, sup
}

// addends is an incoming segment for ref at density d/256: +0.0 elsewhere,
// and among the values −0.0, a NaN payload, a subnormal and −ref[j],
// which cancels ref[j] to +0.0.
func addends(rng *rand.Rand, ref []float64, d int) []float64 {
	in := make([]float64, len(ref))
	for j := range in {
		switch r := rng.Intn(256); {
		case r >= d:
		case r%4 == 0:
			in[j] = []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_0bad_cafe),
				math.SmallestNonzeroFloat64, -ref[j]}[rng.Intn(4)]
		default:
			in[j] = rng.NormFloat64()
		}
	}
	return in
}

// rawWords is v as little-endian words, the dense chunk payload.
func rawWords(v []float64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// requireBody fails unless the body b holds the dense segment ref bit
// for bit — a packed body exactly ref's non-+0.0 words — with the bit of
// every element that is not +0.0 set in Bits (a dense body may know none:
// nil Bits), and sends, for each chunk of per elements and for the whole
// segment, the form and bytes the packed encoder writes from ref: sized
// as the scan sizes it, or, for a dense body, as its candidates bound it.
func requireBody(t *testing.T, name string, b *serde.Body, ref []float64, per int) {
	t.Helper()
	got := b.Vals
	if !b.Dense {
		for j, x := range b.Vals {
			if math.Float64bits(x) == 0 {
				t.Fatalf("%s: value %d of the body is +0.0", name, j)
			}
		}
		got = make([]float64, len(ref))
		serde.ScatterF64(got, b.Bits, b.Vals)
	}
	requireBitwise(t, name, got, ref)
	for j, x := range ref {
		if (b.Bits != nil || !b.Dense) && math.Float64bits(x) != 0 && b.Bits[j>>6]>>uint(j&63)&1 == 0 {
			t.Fatalf("%s: element %d is not +0.0 and its bit is clear", name, j)
		}
	}
	for off := 0; off < len(ref); off += per {
		cnt := min(per, len(ref)-off)
		for _, r := range [][2]int{{off, cnt}, {0, len(ref)}} {
			size, sized := serde.PackedSizeF64(ref, r[0], r[1], nil, 0), b.PackedSize(r[0], r[1])
			if sized != size && !(b.Dense && size > 0 && sized > size) {
				t.Fatalf("%s [%d,+%d): the body sizes its packed form %d bytes, the scan %d", name, r[0], r[1], sized, size)
			}
			want, sent := rawWords(ref[r[0]:r[0]+r[1]]), b.AppendDense(nil, r[0], r[1])
			if size > 0 {
				want = serde.EncodePackedF64(make([]byte, 0, size), ref, r[0], r[1], nil, 0)
				sent = b.AppendPacked(make([]byte, 0, sized), r[0], r[1])
			}
			if !bytes.Equal(sent, want) {
				t.Fatalf("%s [%d,+%d): the body sends other bytes than the encoder writes from the dense segment", name, r[0], r[1])
			}
		}
	}
}

// FuzzCompactSegments: for any aggregator length, support and segment
// count, with +0.0 at set bits, −0.0, NaN payloads and subnormals among
// the values, every segment compactSegs hands out is SplitSlice of the
// expanded vector, as a body that sends the packed encoder's form and
// bytes for every chunk and for the whole segment — whatever body it was
// loaded into, a fresh one or one the ring gave back. form picks the
// aggregator: compact (a packed body that holds no +0.0), or dense (a
// view of its memory, serde.Body.View) with candidates that are its
// support, a random superset of it, or none. Three ring steps then merge
// chunk trains of addends into each body (−0.0 addends, NaN payloads,
// sums that cancel to +0.0, dense and packed chunks), and after each the
// body — for a view, the aggregator memory it covers — must equal the
// dense segment the dense ring would hold — serde.DecodeReducePackedF64
// (addPacked), or F64Ops' dense chunk add, into a segment from +0.0 —
// with the bit of every element that is not +0.0 set, and send its
// bytes, NaN payloads included (where both addends are NaN, the incoming
// one's, as those kernels leave it); the addends grow denser step by
// step, so a packed body can cross ½ in the middle of the ring and go on
// dense. Releasing the source parks no view: under the race build's
// guard the aggregator is not on compactVals.
func FuzzCompactSegments(f *testing.F) {
	f.Add(uint16(1000), uint8(4), uint8(20), uint8(20), uint8(0), int64(1), uint8(0))
	f.Add(uint16(1), uint8(1), uint8(255), uint8(255), uint8(0), int64(2), uint8(0))
	f.Add(uint16(64), uint8(7), uint8(0), uint8(0), uint8(3), int64(3), uint8(0))       // all-zero words
	f.Add(uint16(4099), uint8(16), uint8(128), uint8(40), uint8(9), int64(4), uint8(0)) // chunks inside a segment
	f.Add(uint16(3001), uint8(3), uint8(255), uint8(30), uint8(17), int64(5), uint8(0)) // all-set words, bounds inside a word
	f.Add(uint16(2000), uint8(5), uint8(50), uint8(70), uint8(1), int64(6), uint8(0))   // crosses ½ at the second step
	f.Add(uint16(4500), uint8(1), uint8(30), uint8(100), uint8(200), int64(7), uint8(0))
	f.Add(uint16(1000), uint8(4), uint8(20), uint8(20), uint8(0), int64(8), uint8(1))    // views, exact candidates
	f.Add(uint16(4099), uint8(16), uint8(128), uint8(40), uint8(9), int64(9), uint8(2))  // views, a superset
	f.Add(uint16(3001), uint8(3), uint8(255), uint8(30), uint8(17), int64(10), uint8(3)) // views, no candidates
	f.Add(uint16(2000), uint8(5), uint8(10), uint8(70), uint8(1), int64(11), uint8(2))
	f.Fuzz(func(t *testing.T, n16 uint16, segs8, density, addDensity, chunk8 uint8, seed int64, form uint8) {
		n, nSegs := int(n16)%5000+1, int(segs8)%17+1
		if nSegs > n {
			nSegs = n
		}
		per := 1 + int(chunk8)*7 // elements per chunk of a train
		rng := rand.New(rand.NewSource(seed))
		specials := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.SmallestNonzeroFloat64, 0}
		dense := make([]float64, n)
		zeroAt := map[int]bool{}
		for i := range dense {
			switch r := rng.Intn(256); {
			case r >= int(density):
			case r%5 == 0:
				dense[i] = specials[rng.Intn(len(specials))]
				zeroAt[i] = math.Float64bits(dense[i]) == 0 // +0.0 at a set bit
			default:
				dense[i] = rng.NormFloat64()
			}
		}
		vals, sup := compactOf(dense, func(i int) bool { return zeroAt[i] })
		compact := form%4 == 0
		switch form % 4 {
		case 1, 2:
			vals = append([]float64(nil), dense...) // the aggregator the views reduce in
			for w := range sup {
				if form%4 == 2 {
					sup[w] |= rng.Uint64() & rng.Uint64()
				}
			}
			if tail := n % 64; tail != 0 {
				sup[len(sup)-1] &= 1<<uint(tail) - 1
			}
		case 3:
			vals, sup = append([]float64(nil), dense...), nil
		}
		c := newCompactSegs(vals, sup, n, nSegs, compact)
		owned := map[int]*serde.Body{}
		f64 := collective.F64Ops()
		for i := 0; i < nSegs; i++ {
			name := fmt.Sprintf("n=%d form %d segment %d of %d", n, form%4, i, nSegs)
			ref := append([]float64(nil), SplitSlice(dense, i, nSegs)...)
			b := c.Take(i, i%3)
			if view := SplitSlice(vals, i, nSegs); !compact && (!b.Dense || &b.Vals[0] != &view[0]) {
				t.Fatalf("%s: the body is not a view of its segment of the aggregator", name)
			}
			requireBody(t, name+", loaded", b, ref, per)
			for step := 0; step < 3; step++ {
				in := addends(rng, ref, int(addDensity)+64*step)
				for off := 0; off < len(in); off += per {
					cnt := min(per, len(in)-off)
					var err error
					if size := serde.PackedSizeF64(in, off, cnt, nil, 0); size > 0 {
						payload := serde.EncodePackedF64(make([]byte, 0, size), in, off, cnt, nil, 0)
						err = b.MergePacked(off, cnt, payload)
						if rerr := serde.DecodeReducePackedF64(ref, off, cnt, payload); rerr != nil {
							t.Fatal(rerr)
						}
					} else {
						err = b.MergeDense(off, rawWords(in[off:off+cnt]))
						if rerr := f64.DecodeReduceChunkInto(ref, off, rawWords(in[off:off+cnt])); rerr != nil {
							t.Fatal(rerr)
						}
					}
					if err != nil {
						t.Fatalf("%s, step %d: merging the chunk at %d: %v", name, step, off, err)
					}
				}
				requireBody(t, fmt.Sprintf("%s, step %d", name, step), b, ref, per)
				if !compact {
					requireBitwise(t, fmt.Sprintf("%s, step %d, the aggregator", name, step), SplitSlice(vals, i, nSegs), ref)
				}
			}
			if i%2 == 0 {
				owned[i] = b // the ring's last segment on a channel is owned
			} else {
				c.Give(i, i%3, b)
			}
		}
		c.release(owned)
		if _, parked := parkedVecs.Load(unsafe.SliceData(vals[:cap(vals)])); !compact && parked {
			t.Fatal("the dense aggregator the views covered was parked on compactVals")
		}
	})
}

// requireBitwise fails unless got and want hold the same bits.
func requireBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: element %d is %#x, want %#x", name, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// hotCompactRing runs the collective overhead gate's hot ring (4 ranks,
// p×4 segments of 1<<17 elements, every 32nd element non-zero) reduced
// from each rank's compact aggregator through a compactSegs, and
// returns the measurement and rank 0's owned segments of the last op,
// densified.
func hotCompactRing(t *testing.T, p int, name string) (testing.BenchmarkResult, map[int][]float64) {
	const n, segLen = 4, 1 << 17
	elems := p * n * segLen
	var owned0 map[int][]float64
	res := testing.Benchmark(func(b *testing.B) {
		net := transport.NewMem()
		defer net.Close()
		eps, err := comm.NewGroup(net, fmt.Sprintf("compact-%s-%d", name, p), n)
		if err != nil {
			b.Fatal(err)
		}
		defer comm.CloseGroup(eps)
		srcs := make([]*compactSegs, n)
		for r := range srcs {
			dense := make([]float64, elems)
			for j := 0; j < elems; j += 32 {
				dense[j] = float64(j%17+r+1) * 0.25
			}
			vals, sup := compactOf(dense, func(int) bool { return false })
			srcs[r] = newCompactSegs(vals, sup, elems, p*n, true)
		}
		op := func(keep bool) {
			var wg sync.WaitGroup
			for _, e := range eps {
				wg.Add(1)
				go func(e *comm.Endpoint) {
					defer wg.Done()
					c := srcs[e.Rank()]
					owned, err := collective.RingReduceScatterFrom(context.Background(), e, c, p, collective.BodyOps())
					if err != nil {
						b.Error(err)
						return
					}
					if keep && e.Rank() == 0 {
						owned0 = map[int][]float64{}
						for i, v := range owned {
							owned0[i] = append([]float64(nil), v.Densify()...)
						}
					}
					for i, v := range owned {
						c.Give(i, 0, v)
					}
				}(e)
			}
			wg.Wait()
		}
		op(false) // dial the links, fill the pools and the bodies list
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(false)
		}
		b.StopTimer()
		op(true)
	})
	return res, owned0
}

// TestCompactRingOverhead holds reduce-scatter from a compact source to
// the []V ring's allocation baselines (collective's
// TestTelemetryOverheadOff: 53 at P = 1, 113 at P = 4, +3): loading
// segments into bodies from the bodies list, merging into their spare
// buffers and parking them again allocates nothing per op at steady
// state. The owned segments are the sums of the dense inputs.
func TestCompactRingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead gate skipped in -short")
	}
	baselines := map[int]int64{1: 53, 4: 113}
	// Race instrumentation inflates allocs, so the gate runs without -race
	// (make overhead); under it the ring still runs, with the bodies
	// list's double-park guard armed, and must be exact.
	gate := !comm.RaceGuard
	for _, p := range []int{1, 4} {
		const slack = 3
		var res testing.BenchmarkResult
		var owned map[int][]float64
		min := int64(math.MaxInt64)
		for round := 1; round == 1 || gate && round <= 3 && min > baselines[p]+slack; round++ {
			res, owned = hotCompactRing(t, p, fmt.Sprintf("r%d", round))
			if a := res.AllocsPerOp(); a < min {
				min = a
			}
		}
		t.Logf("P=%d compact source: %v/op, %d allocs/op (baseline %d)", p, res.NsPerOp(), min, baselines[p])
		if gate && min > baselines[p]+slack {
			t.Errorf("P=%d: the compact source allocates %d/op, baseline %d (+%d)", p, min, baselines[p], slack)
		}
		const segLen = 1 << 17
		for i, seg := range owned {
			for j := 0; j < segLen; j++ {
				e := i*segLen + j
				want := 0.0
				if e%32 == 0 {
					for r := 0; r < 4; r++ {
						want += float64(e%17+r+1) * 0.25
					}
				}
				if seg[j] != want {
					t.Fatalf("P=%d: owned segment %d element %d is %v, want %v", p, i, j, seg[j], want)
				}
			}
		}
	}
}

// sparsePart is one partition of a wide, sparse aggregation: it adds
// vals at the sorted, distinct elements idx, whose bitmap is sup.
type sparsePart struct {
	idx  []int
	vals []float64
	sup  []uint64
}

// sparseRDD is parts partitions of one sparsePart each over a
// dim-element aggregator: about per16 elements in 16, small integers, so
// any order of additions gives the same sum.
func sparseRDD(ctx *rdd.Context, parts, dim, per16 int) *rdd.RDD[sparsePart] {
	return rdd.Generate(ctx, parts, func(part int) ([]sparsePart, error) {
		rng := rand.New(rand.NewSource(int64(part) + 1))
		sp := sparsePart{sup: make([]uint64, serde.PackedWords(dim))}
		for j := 0; j < dim; j++ {
			if rng.Intn(16) < per16 {
				sp.idx = append(sp.idx, j)
				sp.vals = append(sp.vals, float64(rng.Intn(9)+1))
				sp.sup[j>>6] |= 1 << uint(j&63)
			}
		}
		return []sparsePart{sp}, nil
	})
}

// sparseWant is the sum sparseRDD's partitions add up to.
func sparseWant(parts, dim, per16 int) []float64 {
	want := make([]float64, dim)
	for part := 0; part < parts; part++ {
		rng := rand.New(rand.NewSource(int64(part) + 1))
		for j := 0; j < dim; j++ {
			if rng.Intn(16) < per16 {
				want[j] += float64(rng.Intn(9) + 1)
			}
		}
	}
	return want
}

// sparseFuncs aggregates sparseRDD on the f64 plane with its supports,
// and with a Fold that writes one partition's values straight out,
// counting the folds it accepts in folds.
func sparseFuncs(dim int, folds *atomic.Int64) F64Funcs[sparsePart] {
	return F64Funcs[sparsePart]{
		Dim: dim,
		SeqOp: func(acc []float64, sp sparsePart) []float64 {
			for k, j := range sp.idx {
				acc[j] += sp.vals[k]
			}
			return acc
		},
		Support: func(sp sparsePart) []uint64 { return sp.sup },
		Fold: func(dst []float64, elems []sparsePart) ([]float64, bool, error) {
			if len(elems) != 1 {
				return dst, false, nil
			}
			folds.Add(1)
			return append(dst, elems[0].vals...), true, nil
		},
	}
}

// aggregateWith is AggregateF64 with get and put as the plane's vector
// free list in place of linalg's.
func aggregateWith[T any](ctx context.Context, r *rdd.RDD[T], fns F64Funcs[T], get func(int) []float64, put func([]float64), opts ...AggOption) ([]float64, error) {
	return aggregate[T, f64Acc, []float64](ctx, r, &f64Plane[T]{F64Funcs: fns, get: get, put: put, ops: collective.BodyOps()}, opts)
}

// makeVec is a fresh +0.0 vector of n elements, a free list that
// never reuses.
func makeVec(n int) []float64 { return make([]float64, n) }

// genericOf is fns as generic callbacks — SplitSlice's view split, and
// ops (nil: serde's) in the ring — the one other way to sum []float64.
func genericOf[T any](fns F64Funcs[T], ops *collective.Ops[[]float64]) AggFuncs[T, []float64, []float64] {
	return AggFuncs[T, []float64, []float64]{
		Zero: vecZero(fns.Dim), SeqOp: fns.SeqOp, MergeOp: AddF64,
		SplitOp: SplitSlice[float64], ReduceOp: AddF64, ConcatOp: ConcatSlices[float64], Ops: ops,
	}
}

// TestChaosCompactKillBetweenStages is TestChaosElasticKillBetweenStages
// on the compact path: a wide, sparse aggregation whose tasks fold into
// compact aggregators — one partition per executor, so the IMM stage
// keeps them compact — loses an executor, and its aggregator, between
// the IMM stage and the ring. The re-run on the survivors, two
// partitions on one of them (a compact aggregator expanded into Zero),
// must be exact, over four ring channels. Under -race the free lists'
// guard panics if any segment buffer or compact accumulator is parked
// twice.
func TestChaosCompactKillBetweenStages(t *testing.T) {
	const parts, dim, par = 3, 40_000, 4
	want := sparseWant(parts, dim, 1)
	for _, s := range []Strategy{StrategySplit, StrategyAllReduce} {
		t.Run(s.String(), func(t *testing.T) {
			churn := &churnBetweenStages{victim: 1, killOnly: true}
			ctx, err := rdd.NewContext(rdd.Config{
				Name: "core-compact-kill-" + s.String(), NumExecutors: 3, CoresPerExecutor: 1, Tracer: trace.New(churn),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Close()
			churn.ctx = ctx
			var folds atomic.Int64
			got, err := AggregateF64(fillChannels(context.Background(), dim, par), sparseRDD(ctx, parts, dim, 1), sparseFuncs(dim, &folds),
				WithStrategy(s), WithParallelism(par))
			if churn.err != nil {
				t.Fatalf("kill: %v", churn.err)
			}
			if err != nil {
				t.Fatalf("%v across a kill between stages: %v", s, err)
			}
			requireExact(t, got, want)
			if n := ctx.Metrics().Count(metrics.CounterElasticRetry); n != 1 {
				t.Fatalf("elastic-retry counter = %d, want 1", n)
			}
			if n := folds.Load(); n != 2*parts {
				t.Fatalf("%d compact folds, want %d: both attempts fold every partition", n, 2*parts)
			}
			// The next aggregation, on the two survivors, is exact too.
			if got, err = AggregateF64(fillChannels(context.Background(), dim, par), sparseRDD(ctx, parts, dim, 1), sparseFuncs(dim, &folds),
				WithStrategy(s), WithParallelism(par)); err != nil {
				t.Fatal(err)
			}
			requireExact(t, got, want)
		})
	}
}

// TestCompactFoldContract: a Fold that returns a value count its
// support does not have fails the task, classified as the caller's
// error, instead of building segments from the wrong values.
func TestCompactFoldContract(t *testing.T) {
	const parts, dim = 2, 4_000
	ctx := testContext(t, 2, 1)
	var folds atomic.Int64
	f := sparseFuncs(dim, &folds)
	f.Fold = func(dst []float64, elems []sparsePart) ([]float64, bool, error) {
		return append(dst, 1), true, nil
	}
	_, err := AggregateF64(context.Background(), sparseRDD(ctx, parts, dim, 1), f, WithStrategy(StrategySplit))
	if err == nil {
		t.Fatal("a Fold with one value for a wide support was accepted")
	}
}
