package collective

// Tests for the zero-suppressed packed chunk form: one property — a ring
// whose ops can pack produces bit for bit what the same ring produces
// with packing taken away — over density × IEEE special values × chunk
// plan × P × cores; the train validator's lossless pair; the kernels'
// ½ rule and the one IEEE corner; and a fuzzer on the decoders.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/serde"
)

// densePattern picks the density of element j of an L-element segment.
type densePattern func(j, L int) float64

func uniform(d float64) densePattern { return func(int, int) float64 { return d } }

// headDense is full for the first half of a segment and 1 % after it, so
// a train of four chunks carries two dense and two packed ones.
func headDense(j, L int) float64 {
	if j < L/2 {
		return 1
	}
	return 0.01
}

// makeSparseInputs builds per-rank segment sets whose element j is
// non-zero with probability density(j, segLen) and +0.0 otherwise.
// With specials, a few columns of every segment carry the values a
// float64 sum can meet: −0.0 on every rank (so the sum is −0.0 and has to
// travel as a set bit), and a NaN, +Inf, −Inf or subnormal on one rank
// over whatever the other ranks drew there. A resident −0.0 never meets
// a suppressed +0.0 — the corner TestPackedNegativeZeroCorner pins.
func makeSparseInputs(rng *rand.Rand, ranks, segments, segLen int, density densePattern, specials bool) [][][]float64 {
	inputs := make([][][]float64, ranks)
	for r := range inputs {
		inputs[r] = make([][]float64, segments)
		for i := range inputs[r] {
			seg := make([]float64, segLen)
			for j := range seg {
				if rng.Float64() < density(j, segLen) {
					seg[j] = rng.NormFloat64()
				}
			}
			inputs[r][i] = seg
		}
	}
	if !specials || segLen < 10 {
		return inputs
	}
	one := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64}
	for i := 0; i < segments; i++ {
		cols := rng.Perm(segLen)[:2*len(one)+2]
		for c, j := range cols {
			switch {
			case c < 2:
				for r := range inputs {
					inputs[r][i][j] = math.Copysign(0, -1)
				}
			default:
				inputs[(c+i)%ranks][i][j] = one[c%len(one)]
			}
		}
	}
	return inputs
}

// encodeCounts tallies how a run's chunks left the encoder.
type encodeCounts struct{ whole, dense, packed atomic.Int64 }

// countForms wraps ops so every outgoing frame is counted by form. A nil
// ops.Packed stays nil.
func countForms(ops Ops[[]float64], c *encodeCounts) Ops[[]float64] {
	ops = countEncodes(ops, &c.whole, &c.dense)
	if ops.Packed != nil {
		p := *ops.Packed
		inner := p.EncodeChunkTo
		p.EncodeChunkTo = func(dst []byte, v []float64, off, n int) []byte {
			c.packed.Add(1)
			return inner(dst, v, off, n)
		}
		ops.Packed = &p
	}
	return ops
}

// packAll returns the packed form of all of v, whether or not the ½
// rule would have chosen it.
func packAll(v []float64) []byte {
	return serde.EncodePackedF64(make([]byte, 0, 8*(serde.PackedWords(len(v))+len(v))), v, 0, len(v), nil, 0)
}

// withoutPacked is F64Ops with the packed form taken away: the dense
// reference of every property below.
func withoutPacked() Ops[[]float64] {
	ops := F64Ops()
	ops.Packed = nil
	return ops
}

// runAllReduce runs RingAllReduce on a private copy of inputs and
// returns every rank's result.
func runAllReduce(t *testing.T, name string, n, p int, inputs [][][]float64, ctx context.Context, ops Ops[[]float64]) [][][]float64 {
	t.Helper()
	cp := deepCopySegs(inputs)
	results := make([][][]float64, n)
	runGroup(t, n, name, func(e *comm.Endpoint) error {
		all, err := RingAllReduce(ctx, e, cp[e.Rank()], p, ops)
		results[e.Rank()] = all
		return err
	})
	return results
}

func requireSameResults(t *testing.T, got, want [][][]float64) {
	t.Helper()
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rank %d: %d segments, want %d", r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			requireBitwiseEqual(t, fmt.Sprintf("rank %d segment %d", r, i), got[r][i], want[r][i])
		}
	}
}

// TestPackedBitwiseIdenticalToDense is the property the packed form
// stands on: through reduce-scatter and allgather, with the forwarding
// relay, packed ≡ dense bit for bit — whatever the density, whichever
// special values are present, however the segment is cut into chunks
// (not at all, into many, into one), at P 1 and 3, with the reduce
// sharded or not. The form counters prove the packed path ran where the
// data is sparse and did not where it is not.
func TestPackedBitwiseIdenticalToDense(t *testing.T) {
	const n = 4
	type plan struct {
		name              string
		segLen            int
		chunkBytes, cores int
	}
	plans := []plan{
		{"unchunked", 700, -1, 1},
		{"chunks", 700, 1000, 4}, // 125-elem chunks: five full, one 75-elem tail
		{"default", 700, 0, 1},   // one chunk: a one-chunk packed train, or the legacy frame
		{"sharded", 1 << 15, 128 << 10, 4},
	}
	densities := []struct {
		name       string
		d          densePattern
		wantPacked bool // every train sparse enough to pack at least one chunk
		wantDense  bool // every train dense enough to leave at least one chunk alone
	}{
		{"0", uniform(0), true, false},
		{"1pct", uniform(0.01), true, false},
		{"50pct", uniform(0.5), false, true}, // four ranks' sums pass ½ at once
		{"100pct", uniform(1), false, true},
		{"mixed", headDense, true, true},
	}
	for _, pl := range plans {
		for _, dn := range densities {
			for _, specials := range []bool{false, true} {
				for _, p := range []int{1, 3} {
					if pl.name == "sharded" && (p != 1 || dn.name == "50pct") {
						continue // one large case per form is enough
					}
					name := fmt.Sprintf("%s/d=%s/specials=%v/p=%d", pl.name, dn.name, specials, p)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(len(name)*131 + pl.segLen + p)))
						inputs := makeSparseInputs(rng, n, p*n, pl.segLen, dn.d, specials)
						ctx := WithCores(WithChunkBytes(context.Background(), pl.chunkBytes), pl.cores)

						want := runAllReduce(t, "pk-dense", n, p, inputs, ctx, withoutPacked())
						var forms encodeCounts
						got := runAllReduce(t, "pk-packed", n, p, inputs, ctx, countForms(F64Ops(), &forms))
						requireSameResults(t, got, want)

						packed, dense := forms.packed.Load(), forms.dense.Load()+forms.whole.Load()
						// An uncut mixed segment is over ½ as a whole: dense.
						wantPacked := dn.wantPacked && !(dn.name == "mixed" && pl.chunkBytes <= 0)
						if wantPacked && packed == 0 {
							t.Errorf("no chunk travelled packed (%d dense)", dense)
						}
						if dn.wantDense && dense == 0 {
							t.Errorf("no chunk travelled dense (%d packed)", packed)
						}
						if dn.name == "100pct" && !specials && packed != 0 {
							t.Errorf("%d chunks of a fully dense input travelled packed", packed)
						}
						if dn.name == "mixed" && pl.name == "chunks" && (packed == 0 || forms.dense.Load() == 0) {
							t.Errorf("train did not mix forms: %d packed, %d dense chunks", packed, forms.dense.Load())
						}
					})
				}
			}
		}
	}
}

// TestPackedNeedsTheHook: ops without Packed — core's serde ops, or
// anything whose reduce is not addition from +0.0 — never send a packed
// frame however sparse the data, and a rank that can pack still
// interoperates with one that cannot only as a receiver of dense frames:
// the hookless rank refuses a packed chunk loudly.
func TestPackedNeedsTheHook(t *testing.T) {
	const n, p, segLen = 3, 1, 400
	inputs := makeSparseInputs(rand.New(rand.NewSource(73)), n, p*n, segLen, uniform(0.01), false)
	generic := Ops[[]float64]{Reduce: F64Ops().Reduce, Encode: encodeF64, Decode: decodeF64}
	want := runAllReduce(t, "pk-hookless-ref", n, p, inputs, context.Background(), withoutPacked())
	got := runAllReduce(t, "pk-hookless", n, p, inputs, context.Background(), generic)
	requireSameResults(t, got, want)

	hookless := &ringChan[[]float64]{stride: 8}
	fr := frame{chunkMeta: chunkMeta{chunked: true, idx: 0, total: 1, elemCnt: 3, elemAll: 3, form: formPacked}, payload: make([]byte, 8)}
	if err := hookless.checkTrain(fr, 0, -1); err == nil {
		t.Error("ops without the packed hook accepted a packed chunk")
	}
}

// TestCheckTrainLosslessPair: dense and packed chunks may alternate
// within a train, whichever form opens it, and a packed payload shorter
// than its bitmap fails before any decoder sees it.
func TestCheckTrainLosslessPair(t *testing.T) {
	rc := &ringChan[[]float64]{stride: 8, packs: true}
	chunk := func(idx int, form chunkForm, payload int) frame {
		return frame{chunkMeta: chunkMeta{chunked: true, idx: idx, total: 4, elemOff: 4 * idx, elemCnt: 4, elemAll: 16, form: form}, payload: make([]byte, payload)}
	}
	for _, train := range [][]frame{
		{chunk(0, formDense, 32), chunk(1, formPacked, 8), chunk(2, formPacked, 16), chunk(3, formDense, 32)},
		{chunk(0, formPacked, 8), chunk(1, formDense, 32), chunk(2, formDense, 32), chunk(3, formPacked, 40)},
	} {
		for i, fr := range train {
			need := -1
			if i > 0 {
				need = 4
			}
			if err := rc.checkTrain(fr, i, need); err != nil {
				t.Fatalf("chunk %d (form %d) of a dense/packed train rejected: %v", i, fr.form, err)
			}
		}
	}
	if err := rc.checkTrain(chunk(0, formPacked, 7), 0, -1); !errors.Is(err, ErrMalformedChunk) {
		t.Errorf("packed payload shorter than its bitmap: %v", err)
	}
}

// TestPackedHalfRule pins the encoder's choice: packed exactly when
// bitmap + non-zero words are at most half the dense bytes, sized
// exactly, and the dense decision made without reading past the point
// that settles it.
func TestPackedHalfRule(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 128, 1000, 4096} {
		words := serde.PackedWords(n)
		for _, nnz := range []int{0, 1, n/2 - words - 1, n/2 - words, n/2 - words + 1, n} {
			if nnz < 0 || nnz > n {
				continue
			}
			v := make([]float64, n+2) // guard elements either side
			v[0], v[n+1] = 1, 1
			for _, j := range rand.New(rand.NewSource(int64(n*7 + nnz))).Perm(n)[:nnz] {
				v[1+j] = float64(j + 1)
			}
			size := serde.PackedSizeF64(v, 1, n, nil, 0)
			want := 0
			if n > 0 && 8*(words+nnz) <= 8*n/2 {
				want = 8 * (words + nnz)
			}
			if size != want {
				t.Fatalf("n=%d nnz=%d: packed size %d, want %d", n, nnz, size, want)
			}
			if size == 0 {
				continue
			}
			wire := serde.EncodePackedF64(make([]byte, 3, 3+size), v, 1, n, nil, 0)
			if len(wire) != 3+size {
				t.Fatalf("n=%d nnz=%d: encoded %d bytes, sized %d", n, nnz, len(wire)-3, size)
			}
			// A zeroed range, as MakeSegment returns it, between guards.
			out := make([]float64, n+2)
			out[0], out[n+1] = -7, -7
			if err := f64Packed.DecodeChunkInto(out, 1, n, wire[3:]); err != nil {
				t.Fatal(err)
			}
			if out[0] != -7 || out[n+1] != -7 {
				t.Fatalf("n=%d nnz=%d: decode wrote outside its range", n, nnz)
			}
			requireBitwiseEqual(t, fmt.Sprintf("n=%d nnz=%d", n, nnz), out[1:n+1], v[1:n+1])
		}
	}
}

// TestPackedNegativeZeroCorner documents the form's one departure from
// the dense add, which no lawful aggregator can reach: the dense reduce
// turns a resident −0.0 into +0.0 when the peer holds +0.0 there; the
// packed reduce never sees the peer's zero and leaves −0.0. A sum that
// starts from +0.0 cannot hold −0.0 (only −0.0 + −0.0 produces one), and
// a −0.0 that is *sent* is a set bit like any other value.
func TestPackedNegativeZeroCorner(t *testing.T) {
	negZero := math.Copysign(0, -1)
	peer := make([]float64, 64) // all +0.0
	peer[5] = negZero           // a −0.0 on the wire travels
	size := serde.PackedSizeF64(peer, 0, 64, nil, 0)
	wire := serde.EncodePackedF64(make([]byte, 0, size), peer, 0, 64, nil, 0)
	if size != 16 || len(wire) != 16 {
		t.Fatalf("a lone −0.0 in 64 elems must pack to bitmap + one word, got %d/%d bytes", size, len(wire))
	}

	packed := []float64{negZero, 1.5, 0, 0, 0, negZero}
	packed = append(packed, make([]float64, 58)...)
	dense := append([]float64(nil), packed...)
	if err := f64Packed.DecodeReduceChunkInto(packed, 0, 64, wire); err != nil {
		t.Fatal(err)
	}
	if err := decodeReduceChunkF64(dense, 0, encodeChunkF64(nil, peer, 0, 64)); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(packed[0]) || math.Signbit(dense[0]) {
		t.Errorf("corner moved: resident −0.0 + suppressed +0.0 gives packed %v dense %v (want −0 and +0)", packed[0], dense[0])
	}
	requireBitwiseEqual(t, "everything but the corner", packed[1:], dense[1:])
	if !math.Signbit(packed[5]) {
		t.Error("−0.0 + transmitted −0.0 must stay −0.0")
	}
}

// TestRingStepBytesRepeat: the chunk plan is a function of the data and
// the chunk size, not of what the ring has seen — two runs over the same
// data report identical ring.step.bytes sums even when the second starts
// from a registry full of slow-link step history, which is what used to
// move the plan.
func TestRingStepBytesRepeat(t *testing.T) {
	const n, p, segLen = 4, 2, 1 << 17 // 1 MiB segments: two default-size chunks each
	inputs := makeSparseInputs(rand.New(rand.NewSource(79)), n, p*n, segLen, headDense, false)
	run := func(name string, history bool) (wire, raw int64) {
		regs := make([]*metrics.Registry, n)
		for r := range regs {
			regs[r] = metrics.NewRegistry()
		}
		cp := deepCopySegs(inputs)
		runGroup(t, n, name, func(e *comm.Endpoint) error {
			_, err := RingReduceScatter(metrics.NewContext(context.Background(), regs[e.Rank()]), e, cp[e.Rank()], p, F64Ops())
			return err
		})
		if history {
			// A second collective on registries that now hold real step
			// history plus sixteen steps of a link at 1 KB/s.
			for _, reg := range regs {
				for i := 0; i < 16; i++ {
					reg.Histogram(metrics.HistRingStepNS).Observe(1e9)
					reg.Histogram(metrics.HistRingStepBytes).Observe(1024)
				}
			}
			for _, reg := range regs {
				wire -= reg.Histogram(metrics.HistRingStepBytes).Sum()
				raw -= reg.Histogram(metrics.HistRingStepRawBytes).Sum()
			}
			cp = deepCopySegs(inputs)
			runGroup(t, n, name+"-again", func(e *comm.Endpoint) error {
				_, err := RingReduceScatter(metrics.NewContext(context.Background(), regs[e.Rank()]), e, cp[e.Rank()], p, F64Ops())
				return err
			})
		}
		for _, reg := range regs {
			wire += reg.Histogram(metrics.HistRingStepBytes).Sum()
			raw += reg.Histogram(metrics.HistRingStepRawBytes).Sum()
		}
		return wire, raw
	}
	wire1, raw1 := run("repeat-1", false)
	wire2, raw2 := run("repeat-2", true)
	if wire1 != wire2 || raw1 != raw2 {
		t.Fatalf("same data, different bytes: wire %d vs %d, raw %d vs %d", wire1, wire2, raw1, raw2)
	}
	// Raw is what the dense encoder would have sent: per step two chunk
	// frames of header + half a segment, packed or not.
	wantRaw := int64(n * (n - 1) * p * (2*(epochHeaderSize+chunkMetaSize) + 8*segLen))
	if raw1 != wantRaw {
		t.Errorf("raw bytes %d, want the dense equivalent %d", raw1, wantRaw)
	}
	if wire1 >= raw1*3/4 {
		t.Errorf("wire bytes %d of raw %d: the sparse halves did not pack", wire1, raw1)
	}
}

// FuzzPackedChunk: the packed decoders take bytes off a socket. Whatever
// arrives — a bitmap of the wrong length, a popcount that disagrees with
// the value count, bits set past the chunk, truncated values — they
// return ErrMalformedChunk before their first store, never panic and
// never write outside [off, off+n); what they accept decodes to what the
// bitmap says. The same bytes, read as float64s, exercise the encoder:
// whatever packs round-trips bit for bit within the promised size, and
// encoding from a support — the true one widened by the bits of extra,
// at a bit offset taken from off — gives the bytes the scan gives.
func FuzzPackedChunk(f *testing.F) {
	v70 := make([]float64, 70)
	v70[1], v70[40], v70[69] = 3, math.Copysign(0, -1), math.NaN()
	good := packAll(v70) // two bitmap words, three values
	f.Add(good, uint16(0), uint16(70), []byte(nil))
	f.Add(good, uint16(3), uint16(70), []byte{0xff})                                                      // lands at an offset
	f.Add(good, uint16(0), uint16(64), []byte{0x01, 0x80})                                                // bitmap one word too long
	f.Add(good, uint16(0), uint16(129), []byte(nil))                                                      // bitmap one word too short
	f.Add(good[:len(good)-8], uint16(0), uint16(70), []byte(nil))                                         // popcount > values
	f.Add(append(good[:len(good):len(good)], 0, 0, 0, 0, 0, 0, 0, 0), uint16(0), uint16(70), []byte(nil)) // popcount < values
	f.Add(good[:len(good)-3], uint16(0), uint16(70), []byte(nil))                                         // truncated value
	f.Add(good, uint16(0), uint16(66), []byte{0x55})                                                      // set bits past elems
	f.Add(good, uint16(250), uint16(70), []byte(nil))                                                     // range past the accumulator
	f.Add([]byte{}, uint16(0), uint16(0), []byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte, off16, n16 uint16, extra []byte) {
		const segLen = 300
		off, n := int(off16), int(n16)
		fresh := func() []float64 {
			acc := make([]float64, segLen)
			for i := range acc {
				acc[i] = float64(i) + 0.5
			}
			return acc
		}
		for name, decode := range map[string]func([]float64, int, int, []byte) error{
			"reduce": f64Packed.DecodeReduceChunkInto, "set": f64Packed.DecodeChunkInto,
		} {
			acc := fresh()
			err := decode(acc, off, n, payload)
			if err != nil {
				if !errors.Is(err, ErrMalformedChunk) {
					t.Fatalf("%s: unclassified error %v", name, err)
				}
				requireBitwiseEqual(t, name+": accumulator after a refused chunk", acc, fresh())
				continue
			}
			// "set" writes the marked elements only: its range is zeroed by
			// MakeSegment, never by the decoder.
			want := fresh()
			vals := payload[8*serde.PackedWords(n):]
			for i := 0; i < n; i++ {
				if uint64At(payload, 8*(i/64))>>uint(i%64)&1 == 0 {
					continue
				}
				if name == "reduce" {
					want[off+i] += serde.Float64At(vals, 0)
				} else {
					want[off+i] = serde.Float64At(vals, 0)
				}
				vals = vals[8:]
			}
			requireBitwiseEqual(t, name, acc, want)
		}

		v := make([]float64, len(payload)/8)
		for i := range v {
			v[i] = serde.Float64At(payload, 8*i)
		}
		requireSupportMatchesScan(t, v, 0, len(v), supersetOf(v, off%131, extra), off%131)
		size := serde.PackedSizeF64(v, 0, len(v), nil, 0)
		if size == 0 {
			return
		}
		if 2*size > 8*len(v) {
			t.Fatalf("packed %d elems into %d bytes, more than half of dense", len(v), size)
		}
		wire := serde.EncodePackedF64(make([]byte, 0, size), v, 0, len(v), nil, 0)
		if len(wire) != size {
			t.Fatalf("encoded %d bytes, sized %d", len(wire), size)
		}
		out := make([]float64, len(v))
		if err := f64Packed.DecodeChunkInto(out, 0, len(v), wire); err != nil {
			t.Fatalf("own encoding refused: %v", err)
		}
		requireBitwiseEqual(t, "round trip", out, v)
		if again := packAll(out); !bytes.Equal(again, wire) {
			t.Fatal("re-encoding the decoded values changed the bytes")
		}
	})
}
