package collective

// Tests for the pipelined chunked ring path: bitwise equivalence with
// the sequential single-frame path (the property the multi-core sharded
// reduce must preserve), exact wire accounting for chunk trains,
// cut-through forwarding in the allgather, the dense frames' byte layout,
// header validation (table and fuzzer), and the static chunk plan.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/transport"
)

// makeDenseInputs is makeInputs with full-precision normal values: no
// rounding, so any reordering of the floating-point additions would
// change low-order bits and fail the bitwise checks below.
func makeDenseInputs(rng *rand.Rand, ranks, segments, segLen int) [][][]float64 {
	inputs := make([][][]float64, ranks)
	for r := range inputs {
		inputs[r] = make([][]float64, segments)
		for i := range inputs[r] {
			seg := make([]float64, segLen)
			for j := range seg {
				seg[j] = rng.NormFloat64()
			}
			inputs[r][i] = seg
		}
	}
	return inputs
}

func deepCopySegs(in [][][]float64) [][][]float64 {
	out := make([][][]float64, len(in))
	for r := range in {
		out[r] = make([][]float64, len(in[r]))
		for i := range in[r] {
			out[r][i] = append([]float64(nil), in[r][i]...)
		}
	}
	return out
}

// runRSVariant runs ring reduce-scatter on a private copy of inputs
// (the fused reduce accumulates in place) and returns all owned
// segments keyed by global index.
func runRSVariant(t *testing.T, name string, n, p int, inputs [][][]float64, ctx context.Context) map[int][]float64 {
	t.Helper()
	cp := deepCopySegs(inputs)
	var mu sync.Mutex
	got := map[int][]float64{}
	runGroup(t, n, name, func(e *comm.Endpoint) error {
		owned, err := RingReduceScatter(ctx, e, cp[e.Rank()], p, F64Ops())
		if err != nil {
			return err
		}
		mu.Lock()
		for i, v := range owned {
			got[i] = v
		}
		mu.Unlock()
		return nil
	})
	return got
}

func requireBitwiseEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: element %d differs bitwise: %x vs %x (%v vs %v)",
				label, j, math.Float64bits(got[j]), math.Float64bits(want[j]), got[j], want[j])
		}
	}
}

// TestPipelinedBitwiseIdenticalToSequential is the central correctness
// property of this PR: for every segment shape — empty, single element,
// odd leftovers, and chunks large enough to engage the multi-core
// sharded reduce — the chunked pipelined ring produces results bitwise
// identical to the sequential single-frame fused path, at P = 1 and 4.
func TestPipelinedBitwiseIdenticalToSequential(t *testing.T) {
	const n = 4
	cases := []struct {
		name       string
		segLen     int
		chunkBytes int
		cores      int
	}{
		{"empty", 0, 1000, 4},
		{"one", 1, 1000, 4},
		{"odd", 129, 1000, 4}, // 125 elems/chunk: a 4-elem tail chunk
		{"large", 1 << 14, 1000, 1},
		{"multicore", 1 << 16, 128 << 10, 4}, // 128 KiB chunks shard 2-wide
	}
	for _, tc := range cases {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tc.segLen*10 + p)))
				inputs := makeDenseInputs(rng, n, p*n, tc.segLen)

				seq := runRSVariant(t, fmt.Sprintf("bw-seq-%s-%d", tc.name, p), n, p, inputs,
					WithChunkBytes(context.Background(), -1))
				pip := runRSVariant(t, fmt.Sprintf("bw-pip-%s-%d", tc.name, p), n, p, inputs,
					WithCores(WithChunkBytes(context.Background(), tc.chunkBytes), tc.cores))

				if len(pip) != len(seq) {
					t.Fatalf("pipelined owned %d segments, sequential %d", len(pip), len(seq))
				}
				for i, want := range seq {
					requireBitwiseEqual(t, fmt.Sprintf("segment %d", i), pip[i], want)
				}
			})
		}
	}
}

// TestPipelinedAllReduceBitwiseIdentical extends the property through
// the allgather phase: chunked assembly (MakeSegment + DecodeChunkInto
// + cut-through forwarding) must reproduce the sequential allreduce
// exactly on every rank.
func TestPipelinedAllReduceBitwiseIdentical(t *testing.T) {
	const n, p = 4, 2
	for _, segLen := range []int{0, 129, 1 << 12} {
		t.Run(fmt.Sprintf("len=%d", segLen), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(segLen) + 11))
			inputs := makeDenseInputs(rng, n, p*n, segLen)

			run := func(name string, ctx context.Context) [][][]float64 {
				cp := deepCopySegs(inputs)
				results := make([][][]float64, n)
				runGroup(t, n, name, func(e *comm.Endpoint) error {
					all, err := RingAllReduce(ctx, e, cp[e.Rank()], p, F64Ops())
					if err != nil {
						return err
					}
					results[e.Rank()] = all
					return nil
				})
				return results
			}
			seq := run(fmt.Sprintf("ar-seq-%d", segLen), WithChunkBytes(context.Background(), -1))
			pip := run(fmt.Sprintf("ar-pip-%d", segLen),
				WithCores(WithChunkBytes(context.Background(), 1000), 4))

			for r := 0; r < n; r++ {
				for i := range seq[r] {
					requireBitwiseEqual(t, fmt.Sprintf("rank %d segment %d", r, i), pip[r][i], seq[r][i])
				}
			}
		})
	}
}

// TestChunkTrainWireAccounting proves the chunk trains are actually on
// the wire — exact message and byte counts, so the bitwise tests above
// cannot pass vacuously with chunking silently disabled. A chunked step
// carries ceil(segBytes/chunkBytes) frames, each framed by the 4-byte
// epoch word and the 20-byte chunk header, with no per-chunk length
// prefix.
func TestChunkTrainWireAccounting(t *testing.T) {
	const (
		n, p       = 4, 1
		segLen     = 4096
		chunkBytes = 8192 // 1024 elems -> exactly 4 chunks per segment
		chunks     = 4
	)
	net := transport.NewMem()
	defer net.Close()
	eps, err := comm.NewGroup(net, "chunk-wire", n)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseGroup(eps)
	rng := rand.New(rand.NewSource(5))
	inputs, want := makeInputs(rng, n, p*n, segLen)

	ctx := WithChunkBytes(context.Background(), chunkBytes)
	var (
		mu  sync.Mutex
		got = map[int][]float64{}
		wg  sync.WaitGroup
	)
	for _, e := range eps {
		wg.Add(1)
		go func(e *comm.Endpoint) {
			defer wg.Done()
			owned, err := RingReduceScatter(ctx, e, inputs[e.Rank()], p, F64Ops())
			if err != nil {
				t.Errorf("rank %d: %v", e.Rank(), err)
				return
			}
			mu.Lock()
			for i, v := range owned {
				got[i] = v
			}
			mu.Unlock()
		}(e)
	}
	wg.Wait()
	for i := range want {
		if !segsEqual(got[i], want[i], 1e-9) {
			t.Fatalf("segment %d: wrong sum", i)
		}
	}

	wantMsgs := int64((n - 1) * p * chunks)
	wantBytes := int64(n-1) * int64(p) * int64(chunks*(epochHeaderSize+chunkMetaSize)+8*segLen)
	for _, e := range eps {
		st := e.Stats()
		if st.MsgsSent != wantMsgs || st.MsgsReceived != wantMsgs {
			t.Fatalf("rank %d moved %d/%d messages, want %d (chunk trains not engaged?)",
				e.Rank(), st.MsgsSent, st.MsgsReceived, wantMsgs)
		}
		if st.BytesSent != wantBytes {
			t.Fatalf("rank %d sent %d bytes, want %d", e.Rank(), st.BytesSent, wantBytes)
		}
	}
}

// countEncodes wraps ops so every whole-segment and chunk encode is
// counted — the instrument for the no-re-encode proof.
func countEncodes(ops Ops[[]float64], whole, chunk *atomic.Int64) Ops[[]float64] {
	innerEnc, innerTo, innerChunk := ops.Encode, ops.EncodeTo, ops.EncodeChunkTo
	ops.Encode = func(dst []byte, v []float64) []byte {
		whole.Add(1)
		return innerEnc(dst, v)
	}
	if innerTo != nil {
		ops.EncodeTo = func(dst []byte, v []float64) []byte {
			whole.Add(1)
			return innerTo(dst, v)
		}
	}
	ops.EncodeChunkTo = func(dst []byte, v []float64, off, n int) []byte {
		chunk.Add(1)
		return innerChunk(dst, v, off, n)
	}
	return ops
}

// noForwardOps strips the DecodeReduceInto marker, which disables frame
// retention and with it cut-through forwarding: the relay falls back to
// decode + re-encode each step — the pre-PR 4 allgather behaviour the
// forwarding tests compare against.
func noForwardOps(ops Ops[[]float64]) Ops[[]float64] {
	ops.DecodeReduceInto = nil
	return ops
}

// runCountedAllGather runs one allgather with encode counting and
// verifies the gathered values, returning (whole, chunk) encode totals
// across all ranks.
func runCountedAllGather(t *testing.T, name string, ctx context.Context, ops Ops[[]float64], segLen int) (int64, int64) {
	t.Helper()
	const n, p = 4, 1
	var whole, chunk atomic.Int64
	counted := countEncodes(ops, &whole, &chunk)
	results := make([][][]float64, n)
	segs := make([][]float64, n)
	for r := range segs {
		segs[r] = make([]float64, segLen)
		for j := range segs[r] {
			segs[r][j] = float64(r*1000 + j%97)
		}
	}
	runGroup(t, n, name, func(e *comm.Endpoint) error {
		r := e.Rank()
		ownIdx := (r + 1) % n
		owned := map[int][]float64{ownIdx: append([]float64(nil), segs[ownIdx]...)}
		all, err := RingAllGather(ctx, e, owned, p, counted)
		if err != nil {
			return err
		}
		results[r] = all
		return nil
	})
	for r := 0; r < n; r++ {
		for i := 0; i < n; i++ {
			requireBitwiseEqual(t, fmt.Sprintf("rank %d segment %d", r, i), results[r][i], segs[i])
		}
	}
	return whole.Load(), chunk.Load()
}

// TestAllGatherForwardsVerbatim is the cut-through forwarding proof:
// with forwarding, each rank encodes only its own segment (step 0) and
// relays every later frame with a header rewrite — encode counts drop
// from (N-1) per rank to 1 (legacy frames), and from (N-1)·C to C
// (chunk trains of C frames).
func TestAllGatherForwardsVerbatim(t *testing.T) {
	const n = 4
	const segLen = 2048
	const chunks = 4 // 4096-byte chunks over a 16 KiB segment

	legacyCtx := WithChunkBytes(context.Background(), -1)
	chunkCtx := WithChunkBytes(context.Background(), segLen*8/chunks)

	whole, chunk := runCountedAllGather(t, "ag-fwd-legacy", legacyCtx, F64Ops(), segLen)
	if whole != n || chunk != 0 {
		t.Errorf("forwarding legacy: %d whole encodes (want %d: one per rank), %d chunk encodes (want 0)",
			whole, n, chunk)
	}

	whole, chunk = runCountedAllGather(t, "ag-fwd-chunk", chunkCtx, F64Ops(), segLen)
	if whole != 0 || chunk != n*chunks {
		t.Errorf("forwarding chunked: %d whole + %d chunk encodes, want 0 + %d (own train only)",
			whole, chunk, n*chunks)
	}

	// Without the retention marker the relay must re-encode every step —
	// the behaviour forwarding removes.
	whole, chunk = runCountedAllGather(t, "ag-re-legacy", legacyCtx, noForwardOps(F64Ops()), segLen)
	if whole != n*(n-1) || chunk != 0 {
		t.Errorf("re-encode legacy: %d whole encodes, want %d ((N-1) per rank)", whole, n*(n-1))
	}
	whole, chunk = runCountedAllGather(t, "ag-re-chunk", chunkCtx, noForwardOps(F64Ops()), segLen)
	if whole != 0 || chunk != n*(n-1)*chunks {
		t.Errorf("re-encode chunked: %d chunk encodes, want %d ((N-1)·C per rank)", chunk, n*(n-1)*chunks)
	}
}

// TestCheckTrainRejectsCorruptChunks drives the train validator with
// every malformed frame shape: each must fail loudly instead of
// mis-reducing.
func TestCheckTrainRejectsCorruptChunks(t *testing.T) {
	rc := &ringChan[[]float64]{stride: 8}
	ok8 := make([]byte, 8)
	cases := []struct {
		name      string
		fr        frame
		got, need int
	}{
		{"whole frame mid-train", frame{chunked: false}, 1, 4},
		{"negative index", frame{chunked: true, idx: -1, total: 2, elemCnt: 1, elemAll: 2, payload: ok8}, 0, -1},
		{"zero total", frame{chunked: true, idx: 0, total: 0, elemCnt: 1, elemAll: 2, payload: ok8}, 0, -1},
		{"out of order", frame{chunked: true, idx: 2, total: 4, elemCnt: 1, elemAll: 8, payload: ok8}, 1, 4},
		{"train length changed", frame{chunked: true, idx: 1, total: 5, elemCnt: 1, elemAll: 8, payload: ok8}, 1, 4},
		{"range overflow", frame{chunked: true, idx: 0, total: 2, elemOff: 3, elemCnt: 2, elemAll: 4, payload: make([]byte, 16)}, 0, -1},
		{"payload size mismatch", frame{chunked: true, idx: 0, total: 2, elemCnt: 2, elemAll: 4, payload: ok8}, 0, -1},
	}
	for _, tc := range cases {
		if err := rc.checkTrain(tc.fr, tc.got, tc.need); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The happy path must pass.
	if err := rc.checkTrain(frame{chunked: true, idx: 1, total: 4, elemOff: 1, elemCnt: 1, elemAll: 4, payload: ok8}, 1, 4); err != nil {
		t.Errorf("valid chunk rejected: %v", err)
	}
	// A chunked frame against chunk-incapable ops must fail too.
	bare := &ringChan[[]float64]{}
	if err := bare.checkTrain(frame{chunked: true, total: 1, elemCnt: 1, elemAll: 1, payload: ok8}, 0, -1); err == nil {
		t.Error("chunked frame accepted by ops with no chunk decoder")
	}
}

// TestCheckTrainRejectsUnknownForm: the form byte has two values. Every
// other one — 1, 2 and 3 once named lossy codecs whose payloads these
// would be — fails the step as ErrMalformedChunk, as the first chunk of a
// train or inside one, before anything is stored.
func TestCheckTrainRejectsUnknownForm(t *testing.T) {
	rc := &ringChan[[]float64]{stride: 8, packs: true, ops: F64Ops()}
	const n = 4
	for _, tc := range []struct {
		form    chunkForm
		payload int
	}{
		{1, 8 + 2*n}, {2, 8 + n}, {3, 4 + 12*2}, {3, 4 + 8*n}, // retired layouts
		{1, 8 * n}, {2, 8 * n}, {3, 8 * n}, // dense-sized payloads
		{5, 8 * n}, {9, 8 * n}, {255, 8 * n},
	} {
		for _, at := range []struct{ got, need int }{{0, -1}, {1, 4}} {
			fr := frame{chunked: true, idx: at.got, total: 4, elemOff: n * at.got, elemCnt: n, elemAll: 4 * n,
				form: tc.form, payload: make([]byte, tc.payload)}
			if err := rc.checkTrain(fr, at.got, at.need); !errors.Is(err, ErrMalformedChunk) {
				t.Errorf("form %d, %d-byte payload, chunk %d: %v, want ErrMalformedChunk", tc.form, tc.payload, at.got, err)
			}
		}
	}
}

// leWords is the little-endian byte string of 32-bit words.
func leWords(words ...uint32) []byte {
	var out []byte
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// leFloats is the little-endian byte string of float64 words.
func leFloats(vals ...float64) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// TestDenseWireByteIdentical pins the bytes of the two dense frames, the
// ones every rank of every earlier build has put on the wire: a dense
// chunk is epoch|flags, optional span ID, five header words with a zero
// form byte, then the raw element words; a whole-segment frame is
// epoch|flags, optional span ID, then the ops' own encoding. (The wire
// accounting tests count these bytes; this one reads them.)
func TestDenseWireByteIdentical(t *testing.T) {
	const epoch, span = 0x2345678, 0x1122334455667788
	v := []float64{1.5, -2.25, math.Copysign(0, -1), math.Inf(1), 3, 4, 5, 6}
	rc := &ringChan[[]float64]{ops: F64Ops(), stride: 8, packs: true, epoch: epoch}
	spanLE := binary.LittleEndian.AppendUint64(nil, span)
	for _, tc := range []struct {
		name string
		got  []byte
		want [][]byte
	}{
		{"chunk", rc.encodeChunkFrame(0, v, 2, 5, 3, 4, 8),
			[][]byte{leWords(epoch|chunkFlag, 2, 5, 3, 4, 8), leFloats(v[3:7]...)}},
		{"traced chunk", rc.encodeChunkFrame(span, v, 2, 5, 3, 4, 8),
			[][]byte{leWords(epoch | chunkFlag | spanFlag), spanLE, leWords(2, 5, 3, 4, 8), leFloats(v[3:7]...)}},
		{"whole segment", rc.encodeNext(0, v, 1, 8, 8),
			[][]byte{leWords(epoch, 8), leFloats(v...)}},
		{"traced whole segment", rc.encodeNext(span, v, 1, 8, 8),
			[][]byte{leWords(epoch | spanFlag), spanLE, leWords(8), leFloats(v...)}},
	} {
		if want := bytes.Join(tc.want, nil); !bytes.Equal(tc.got, want) {
			t.Errorf("%s frame:\n got %x\nwant %x", tc.name, tc.got, want)
		}
		comm.Release(tc.got)
	}
}

// FuzzRingFrame: the receive path takes bytes off a socket. Whatever
// arrives, parseFrame → checkTrain → the chunk's decode-reduce and its
// allgather decode never panic and never store outside the chunk's
// element range; a frame any stage refuses leaves the accumulator as it
// was; and a form byte other than dense or packed is refused as
// ErrMalformedChunk. got and need are the train state the frame meets.
func FuzzRingFrame(f *testing.F) {
	const segLen = 96
	chunkFrame := func(form chunkForm, idx, total, off, cnt, all uint32, payload []byte) []byte {
		return append(leWords(7|chunkFlag, uint32(form)<<24|idx, total, off, cnt, all), payload...)
	}
	sparse := make([]float64, 70)
	sparse[1], sparse[40], sparse[69] = 3, math.Copysign(0, -1), math.NaN()
	dense8 := leFloats(1, 2, 3, 4, 5, 6, 7, 8)

	f.Add(chunkFrame(formDense, 0, 2, 8, 8, 96, dense8), uint8(0), int8(-1))
	f.Add(chunkFrame(formDense, 1, 2, 88, 8, 96, dense8), uint8(1), int8(2))
	f.Add(chunkFrame(formPacked, 0, 1, 5, 70, 96, packAll(sparse)), uint8(0), int8(-1))
	f.Add(append(leWords(7, 96), leFloats(make([]float64, 96)...)...), uint8(0), int8(-1)) // whole segment
	f.Add(append(leWords(7, 96), leFloats(make([]float64, 96)...)...), uint8(2), int8(4))  // … inside a train
	// Retired form bytes, each over the payload its old decoder would have
	// taken and over a dense-sized one.
	f.Add(chunkFrame(1, 0, 1, 0, 8, 96, make([]byte, 8+2*8)), uint8(0), int8(-1))
	f.Add(chunkFrame(2, 0, 1, 0, 8, 96, make([]byte, 8+8)), uint8(0), int8(-1))
	f.Add(chunkFrame(3, 0, 1, 0, 8, 96, append(leWords(1, 5), leFloats(9)...)), uint8(0), int8(-1))
	f.Add(chunkFrame(1, 0, 1, 0, 8, 96, dense8), uint8(0), int8(-1))
	f.Add(chunkFrame(2, 1, 2, 8, 8, 96, dense8), uint8(1), int8(2))
	f.Add(chunkFrame(3, 0, 1, 0, 8, 96, dense8), uint8(0), int8(-1))
	f.Add(chunkFrame(5, 0, 1, 0, 8, 96, dense8), uint8(0), int8(-1))
	// Truncated headers.
	f.Add([]byte{7, 0}, uint8(0), int8(-1))
	f.Add(append(leWords(7|spanFlag), 1, 2, 3), uint8(0), int8(-1))
	f.Add(leWords(7|chunkFlag, 0, 1, 0), uint8(0), int8(-1))
	f.Add(append(leWords(7|chunkFlag|spanFlag), make([]byte, 8+19)...), uint8(0), int8(-1))
	// Ranges: past the declared segment, past the local one, and a packed
	// chunk whose bitmap is cut short.
	f.Add(chunkFrame(formDense, 0, 2, 92, 8, 96, dense8), uint8(0), int8(-1))
	f.Add(chunkFrame(formDense, 0, 2, 92, 8, 200, dense8), uint8(0), int8(-1))
	f.Add(chunkFrame(formPacked, 0, 1, 40, 70, 200, packAll(sparse)), uint8(0), int8(-1))
	f.Add(chunkFrame(formPacked, 0, 1, 0, 70, 96, packAll(sparse)[:12]), uint8(0), int8(-1))
	f.Add(chunkFrame(formDense, 0, 1, 0xFFFFFFF0, 0x20, 0xFFFFFFFF, dense8), uint8(0), int8(-1))

	f.Fuzz(func(t *testing.T, in []byte, got uint8, need int8) {
		fresh := func() []float64 {
			acc := make([]float64, segLen)
			for i := range acc {
				acc[i] = float64(i) + 0.5
			}
			return acc
		}
		rc := &ringChan[[]float64]{ops: F64Ops(), stride: 8, packs: true, cores: 1}
		fr, err := parseFrame(in)
		if err != nil {
			return
		}
		if len(fr.payload) > len(in) || fr.epoch&^epochMask != 0 {
			t.Fatalf("parsed %d payload bytes and epoch %#x out of a %d-byte frame", len(fr.payload), fr.epoch, len(in))
		}
		needN := -1
		if got > 0 && need > 0 {
			needN = int(need)
		}
		if err := rc.checkTrain(fr, int(got), needN); err != nil {
			if fr.chunked && fr.form != formDense && fr.form != formPacked && !errors.Is(err, ErrMalformedChunk) {
				t.Fatalf("form byte %d refused without the classification: %v", fr.form, err)
			}
			return
		}
		if !fr.chunked {
			if got != 0 {
				t.Fatalf("whole-segment frame accepted %d chunks into a train", got)
			}
			acc := fresh()
			if _, _, err := decodeReduce(rc.ops, acc, fr.payload); err != nil {
				requireBitwiseEqual(t, "accumulator after a refused whole-segment frame", acc, fresh())
			}
			return
		}
		if fr.form != formDense && fr.form != formPacked {
			t.Fatalf("form byte %d accepted", fr.form)
		}
		for name, apply := range map[string]func([]float64, frame) error{
			"reduce": rc.reduceChunk, "set": rc.decodeChunk,
		} {
			acc, want := fresh(), fresh()
			if err := apply(acc, fr); err != nil {
				requireBitwiseEqual(t, name+": accumulator after a refused chunk", acc, want)
				continue
			}
			lo, hi := fr.elemOff, fr.elemOff+fr.elemCnt
			requireBitwiseEqual(t, name+": below the chunk", acc[:lo], want[:lo])
			requireBitwiseEqual(t, name+": above the chunk", acc[hi:], want[hi:])
			if fr.form == formDense {
				for i := lo; i < hi; i++ {
					v := float64At(fr.payload, 8*(i-lo))
					if name == "reduce" {
						v += want[i]
					}
					want[i] = v
				}
				requireBitwiseEqual(t, name+": the chunk", acc[lo:hi], want[lo:hi])
			}
		}
	})
}

// TestResolveChunkBytesPrecedence: an explicit context choice wins;
// negative disables; with no choice the plan is the package default,
// whatever the registry in the context has seen — the chunk plan is a
// function of the data and the chunk size only.
func TestResolveChunkBytesPrecedence(t *testing.T) {
	reg := metrics.NewRegistry()
	for i := 0; i < 16; i++ {
		reg.Histogram(metrics.HistRingStepNS).Observe(1e9)
		reg.Histogram(metrics.HistRingStepBytes).Observe(1024)
	}
	base := metrics.NewContext(context.Background(), reg)
	if got := resolveChunkBytes(WithChunkBytes(base, 12345)); got != 12345 {
		t.Errorf("explicit size: %d, want 12345", got)
	}
	if got := resolveChunkBytes(WithChunkBytes(base, -1)); got != 0 {
		t.Errorf("explicit disable: %d, want 0", got)
	}
	if got := resolveChunkBytes(base); got != defaultChunkBytes {
		t.Errorf("no choice, slow step history: %d, want the default %d", got, defaultChunkBytes)
	}
}

// TestChaosKillMidChunkTrain kills a peer's inbound links in the middle
// of a chunk train (after the handshake and two chunk frames of an
// 8-chunk train): every rank must classify the failure — the error
// core.Aggregate's ring→tree fallback dispatches on — within the same
// ripple bound as the whole-frame kill case, with no goroutine leak.
func TestChaosKillMidChunkTrain(t *testing.T) {
	const (
		n            = 4
		p            = 1
		segLen       = 1024 // 8 KiB segments
		chunkBytes   = 1024 // -> 8-chunk trains
		stepDeadline = 500 * time.Millisecond
	)
	before := runtime.NumGoroutine()
	group := "chaos-midchunk"
	victim := transport.Addr(fmt.Sprintf("comm/%s/%d", group, 1))
	net := transport.NewFaulty(transport.NewMem(), 1, &transport.FaultRule{
		Match:     func(a transport.Addr) bool { return a == victim },
		Kind:      transport.FaultKill,
		AfterMsgs: 3, // handshake + 2 chunk frames pass; dies mid-train
	})
	defer net.Close()
	rng := rand.New(rand.NewSource(9))
	inputs, _ := makeInputs(rng, n, p*n, segLen)
	errs, elapsed := runChaosGroup(t, net, n, group, func(e *comm.Endpoint) error {
		ctx := WithChunkBytes(WithStepDeadline(context.Background(), stepDeadline), chunkBytes)
		_, err := RingAllReduce(ctx, e, inputs[e.Rank()], p, F64Ops())
		return err
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: mid-train kill must fail the collective", r)
		}
		if !classified(err) {
			t.Fatalf("rank %d: unclassified error %v", r, err)
		}
	}
	if limit := time.Duration(2*(n-1)+2) * stepDeadline; elapsed > limit {
		t.Fatalf("classification took %v, want <= %v", elapsed, limit)
	}
	chaosSettle(t, before)
}

// TestChunkedTimeoutIsClassified: a peer that goes silent mid-train
// (drop, not kill) must classify as ErrPeerTimeout within the step
// deadline, matching the PR 2 semantics of the single-frame path.
func TestChunkedTimeoutIsClassified(t *testing.T) {
	const stepDeadline = 300 * time.Millisecond
	group := "chaos-chunk-drop"
	net := transport.NewFaulty(transport.NewMem(), 1, &transport.FaultRule{
		Match:     ringMatch(group),
		Kind:      transport.FaultDrop,
		AfterMsgs: 4, // handshake + 3 chunks of each train, then silence
	})
	defer net.Close()
	rng := rand.New(rand.NewSource(13))
	inputs, _ := makeInputs(rng, 4, 4, 1024)
	errs, elapsed := runChaosGroup(t, net, 4, group, func(e *comm.Endpoint) error {
		ctx := WithChunkBytes(WithStepDeadline(context.Background(), stepDeadline), 1024)
		_, err := RingReduceScatter(ctx, e, inputs[e.Rank()], 1, F64Ops())
		return err
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: silent mid-train peer must fail", r)
		}
		if !errors.Is(err, comm.ErrPeerTimeout) {
			t.Fatalf("rank %d: want ErrPeerTimeout, got %v", r, err)
		}
	}
	if elapsed > 2*stepDeadline {
		t.Fatalf("classification took %v, want <= %v", elapsed, 2*stepDeadline)
	}
}
