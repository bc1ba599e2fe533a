package collective

// Tests for the wire codec layer (DESIGN.md §13): quantize→dequantize
// round-trip error bounds, top-k frame semantics and the dense-fallback
// density threshold, mixed-codec and corrupt-frame rejection, end-to-end
// compressed rings against the dense baseline, error-feedback gains,
// wire accounting (bytes-on-wire reduction must be real, not simulated),
// and chaos: a peer dying mid compressed chunk train must classify.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sparker/internal/comm"
	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/transport"
)

func TestParseCodec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Codec
	}{{"", CodecNone}, {"none", CodecNone}, {"dense", CodecNone}, {"fp16", CodecFP16}, {"int8", CodecInt8}, {"topk", CodecTopK}, {"top-k", CodecTopK}} {
		got, err := ParseCodec(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseCodec("gzip"); err == nil {
		t.Error("ParseCodec accepted an unknown codec")
	}
	if CodecFP16.String() != "fp16" || CodecNone.String() != "none" {
		t.Error("Codec.String mismatch")
	}
}

// TestFP16RoundTripBound: encode/decode of one chunk keeps every
// element within the fp16 quantization bound — relative error ≤ 2⁻¹¹ of
// the element for normal values, absolute error ≤ a tiny fraction of
// the chunk max for values that land in half's subnormal range after
// scaling. With a residual array attached, each residual must be
// exactly the signed error.
func TestFP16RoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
		}
		m := linalg.MaxAbs(vals)
		res := make([]float64, n)
		buf := make([]byte, 8+2*n)
		fp16Encode(buf, vals, res)

		scale, body, err := quantPayload(buf, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		dec := make([]float64, n)
		fp16SetInto(dec, body, scale)
		for i := range vals {
			e := math.Abs(dec[i] - vals[i])
			bound := math.Max(math.Abs(vals[i])*math.Pow(2, -11), m*math.Pow(2, -24))
			if e > bound {
				t.Fatalf("trial %d element %d: |%g - %g| = %g exceeds fp16 bound %g (chunk max %g)",
					trial, i, dec[i], vals[i], e, bound, m)
			}
			if res[i] != vals[i]-dec[i] {
				t.Fatalf("residual %d: %g, want exact error %g", i, res[i], vals[i]-dec[i])
			}
		}
	}
	// All-zero chunk: scale falls back to 1, decode is exact zeros.
	zero := make([]float64, 16)
	buf := make([]byte, 8+2*16)
	fp16Encode(buf, zero, nil)
	scale, body, _ := quantPayload(buf, 16, 2)
	if scale != 1 {
		t.Errorf("all-zero chunk scale %g, want 1", scale)
	}
	dec := make([]float64, 16)
	fp16SetInto(dec, body, scale)
	for _, v := range dec {
		if v != 0 {
			t.Fatalf("all-zero chunk decoded %g", v)
		}
	}
}

// TestInt8RoundTripBound: the int8 quantizer's error is at most half a
// quantization step (scale/2 = max|v|/254) per element.
func TestInt8RoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		m := linalg.MaxAbs(vals)
		res := make([]float64, n)
		buf := make([]byte, 8+n)
		int8Encode(buf, vals, res)
		scale, body, err := quantPayload(buf, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		dec := make([]float64, n)
		int8SetInto(dec, body, scale)
		bound := m/254 + 1e-12
		for i := range vals {
			if e := math.Abs(dec[i] - vals[i]); e > bound {
				t.Fatalf("trial %d element %d: error %g exceeds int8 bound %g", trial, i, e, bound)
			}
			if res[i] != vals[i]-dec[i] {
				t.Fatalf("residual %d: %g, want %g", i, res[i], vals[i]-dec[i])
			}
		}
	}
}

// TestTopKSparseFrame: the sparse encoder emits exactly k pairs in
// strictly increasing index order — the k largest magnitudes plus
// threshold ties — unsent values accumulate whole into the residual,
// and the decoder reproduces exactly the sent values.
func TestTopKSparseFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, k = 1000, 10
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	res := make([]float64, n)
	scratch := make([]float64, n)
	for i, v := range vals {
		scratch[i] = math.Abs(v)
	}
	thr := kthLargestAbs(scratch, k)
	buf := make([]byte, 4+12*k)
	if !topKEncodeSparse(buf, vals, res, k, thr) {
		t.Fatal("sparse encode reported short frame on clean input")
	}
	gotK, idxB, valB, err := topKParse(buf, n)
	if err != nil {
		t.Fatal(err)
	}
	if gotK != k {
		t.Fatalf("parsed k %d, want %d", gotK, k)
	}
	dec := make([]float64, n)
	if err := topKScatterAdd(dec, idxB, valB, 0, k); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for i := range vals {
		if dec[i] != 0 {
			sent++
			if dec[i] != vals[i] {
				t.Fatalf("element %d travelled as %g, want exact %g", i, dec[i], vals[i])
			}
			if res[i] != 0 {
				t.Fatalf("sent element %d left residual %g", i, res[i])
			}
			if math.Abs(vals[i]) < thr {
				t.Fatalf("element %d (|v| %g) sent below threshold %g", i, math.Abs(vals[i]), thr)
			}
		} else if res[i] != vals[i] {
			t.Fatalf("unsent element %d residual %g, want full value %g", i, res[i], vals[i])
		}
	}
	if sent != k {
		t.Fatalf("%d elements decoded, want %d", sent, k)
	}

	// NaN magnitudes defeat the selection: the encoder must report the
	// short frame so the caller can fall back to dense.
	vals[0] = math.NaN()
	for i, v := range vals {
		scratch[i] = math.Abs(v)
	}
	if topKEncodeSparse(buf, vals, res, k, kthLargestAbs(scratch, k)) {
		t.Error("NaN-poisoned selection filled the frame; expected short-frame report")
	}
}

// TestTopKDenseFallbackThreshold drives encodeCodecFrame through the
// density threshold: a ratio that makes 12k ≥ 8n must produce the
// dense-sentinel payload (sparse framing would be larger), a small
// ratio the sparse payload, and both must stamp the codec byte into the
// chunk-meta index word.
func TestTopKDenseFallbackThreshold(t *testing.T) {
	const n = 96
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	run := func(ratio float64) (payload []byte, idxWord uint32) {
		rc := &ringChan[[]float64]{stride: 8}
		rc.floats = F64Ops().Floats
		rc.comp = Compression{Codec: CodecTopK, TopKRatio: ratio}
		wire := rc.encodeCodecFrame(0, vals, 0, 1, 0, n, n)
		defer comm.Release(wire)
		hs := epochHeaderSize
		idxWord = uint32At(wire, hs)
		payload = append([]byte(nil), wire[hs+chunkMetaSize:]...)
		return payload, idxWord
	}

	// ratio 0.9: k = 86, 12·86 = 1032 ≥ 768 = 8·96 → dense fallback.
	payload, idxWord := run(0.9)
	if Codec(idxWord>>24) != CodecTopK {
		t.Fatalf("codec byte %d, want %d", idxWord>>24, CodecTopK)
	}
	if got := uint32At(payload, 0); got != topKDenseSentinel {
		t.Fatalf("dense fallback sentinel missing (nnz word %#x)", got)
	}
	if len(payload) != 4+8*n {
		t.Fatalf("dense fallback payload %d bytes, want %d", len(payload), 4+8*n)
	}

	// ratio 0.25: k = 24, 12·24 = 288 < 768 → sparse frame.
	payload, idxWord = run(0.25)
	if Codec(idxWord>>24) != CodecTopK {
		t.Fatalf("codec byte %d, want %d", idxWord>>24, CodecTopK)
	}
	k, _, _, err := topKParse(payload, n)
	if err != nil {
		t.Fatal(err)
	}
	if k != 24 {
		t.Fatalf("sparse frame k %d, want 24", k)
	}
	if len(payload) != 4+12*24 {
		t.Fatalf("sparse payload %d bytes, want %d", len(payload), 4+12*24)
	}
}

// TestCheckTrainRejectsCodecViolations extends the corrupt-frame table
// to the codec dimension: unknown codec ids, compressed frames against
// float-less ops, codec changes mid-train, and payload sizes that do
// not match the declared codec must all fail loudly.
func TestCheckTrainRejectsCodecViolations(t *testing.T) {
	withView := &ringChan[[]float64]{stride: 8, floats: F64Ops().Floats}
	fp16 := func(n int) []byte { return make([]byte, 8+2*n) }

	// Unknown codec id.
	fr := frame{chunked: true, idx: 0, total: 2, elemCnt: 4, elemAll: 8, codec: Codec(9), payload: fp16(4)}
	if err := withView.checkTrain(fr, 0, -1); err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Errorf("unknown codec: %v", err)
	}
	// Compressed frame against ops with no float view.
	noView := &ringChan[[]float64]{stride: 8}
	fr.codec = CodecFP16
	if err := noView.checkTrain(fr, 0, -1); err == nil || !strings.Contains(err.Error(), "float view") {
		t.Errorf("no float view: %v", err)
	}
	// Mixed codec mid-train: first frame fixes fp16, second claims int8.
	if err := withView.checkTrain(fr, 0, -1); err != nil {
		t.Fatalf("valid fp16 first chunk rejected: %v", err)
	}
	second := frame{chunked: true, idx: 1, total: 2, elemCnt: 4, elemAll: 8, codec: CodecInt8, payload: make([]byte, 8+4)}
	if err := withView.checkTrain(second, 1, 2); err == nil || !strings.Contains(err.Error(), "mixed-codec") {
		t.Errorf("mixed codec: %v", err)
	}
	// Same train continuing in fp16 passes.
	second.codec = CodecFP16
	second.payload = fp16(4)
	if err := withView.checkTrain(second, 1, 2); err != nil {
		t.Errorf("consistent codec rejected: %v", err)
	}
	// Codec payload length mismatches.
	bad := frame{chunked: true, idx: 0, total: 2, elemCnt: 4, elemAll: 8, codec: CodecFP16, payload: make([]byte, 7)}
	if err := withView.checkTrain(bad, 0, -1); err == nil {
		t.Error("short fp16 payload accepted")
	}
	bad.codec = CodecInt8
	bad.payload = make([]byte, 8+5)
	if err := withView.checkTrain(bad, 0, -1); err == nil {
		t.Error("wrong int8 payload accepted")
	}
	bad.codec = CodecTopK
	bad.payload = make([]byte, 3)
	if err := withView.checkTrain(bad, 0, -1); err == nil {
		t.Error("top-k payload shorter than nnz word accepted")
	}

	// Corrupt top-k bodies are rejected at decode: truncated pair arrays,
	// nnz beyond the chunk, and non-increasing indices.
	if _, _, _, err := topKParse(make([]byte, 4+11), 100); err == nil {
		t.Error("truncated top-k pair array accepted")
	}
	over := make([]byte, 4+12*5)
	putUint32(over, 5)
	if _, _, _, err := topKParse(over, 3); err == nil {
		t.Error("top-k nnz beyond elemCnt accepted")
	}
	dup := make([]byte, 4+12*2)
	putUint32(dup, 2)
	putUint32(dup[4:], 7)
	putUint32(dup[8:], 7) // duplicate index
	if k, idxB, valB, err := topKParse(dup, 100); err != nil {
		t.Fatal(err)
	} else if err := topKScatterAdd(make([]float64, 100), idxB, valB, 0, k); err == nil {
		t.Error("duplicate top-k index accepted by scatter-add")
	}
}

// TestCompressionRequiresFloatView: a codec request against ops without
// the float view must fail the collective up front, not mid-train.
func TestCompressionRequiresFloatView(t *testing.T) {
	ops := F64Ops()
	ops.Floats = nil
	ctx := WithCompression(context.Background(), Compression{Codec: CodecFP16})
	net := transport.NewMem()
	defer net.Close()
	eps, err := comm.NewGroup(net, "codec-refuse", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseGroup(eps)
	_, err = RingReduceScatter(ctx, eps[0], [][]float64{{1}, {2}}, 1, ops)
	if err == nil || !strings.Contains(err.Error(), "Floats view") {
		t.Fatalf("float-less ops accepted compression: %v", err)
	}
}

// runCompressedRS runs ring reduce-scatter under comp for every rank
// (each rank gets its own residual state, like one executor each) and
// returns owned segments keyed by global index.
func runCompressedRS(t *testing.T, name string, n, p int, inputs [][][]float64, chunkBytes int, comp Compression) map[int][]float64 {
	t.Helper()
	cp := deepCopySegs(inputs)
	states := make([]*CompressionState, n)
	for r := range states {
		states[r] = NewCompressionState()
	}
	var mu sync.Mutex
	got := map[int][]float64{}
	runGroup(t, n, name, func(e *comm.Endpoint) error {
		c := comp
		if c.ErrorFeedback && c.State == nil {
			c.State = states[e.Rank()]
		}
		ctx := WithCompression(WithChunkBytes(context.Background(), chunkBytes), c)
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

// TestCompressedRingCloseToDense: the quantizing codecs must reproduce
// the dense reduce-scatter within their accumulated quantization bounds
// — each of the N−1 hops re-quantizes, so the tolerance is a few
// quantization steps of the running maximum.
func TestCompressedRingCloseToDense(t *testing.T) {
	const n, p, segLen = 4, 2, 2048
	rng := rand.New(rand.NewSource(31))
	inputs := makeDenseInputs(rng, n, p*n, segLen)
	dense := runRSVariant(t, "codec-dense", n, p, inputs, WithChunkBytes(context.Background(), 4096))

	for _, tc := range []struct {
		codec Codec
		tol   float64 // ∞-norm error tolerance relative to the dense ∞-norm
	}{
		{CodecFP16, 0.01},
		{CodecInt8, 0.05},
	} {
		t.Run(tc.codec.String(), func(t *testing.T) {
			got := runCompressedRS(t, "codec-"+tc.codec.String(), n, p, inputs, 4096, Compression{Codec: tc.codec})
			if len(got) != len(dense) {
				t.Fatalf("owned %d segments, dense owned %d", len(got), len(dense))
			}
			for i, want := range dense {
				m := linalg.MaxAbs(want)
				for j := range want {
					if e := math.Abs(got[i][j] - want[j]); e > tc.tol*m {
						t.Fatalf("segment %d element %d: compressed %g vs dense %g (err %g > %g)",
							i, j, got[i][j], want[j], e, tc.tol*m)
					}
				}
			}
		})
	}
}

// TestTopKExactOnSparseData: when every chunk has at most k non-zeros,
// top-k frames carry the values exactly and the sparse-aware
// scatter-add reduce must be bitwise identical to the dense ring — the
// codec's home turf, and the proof the sharded scatter-add reduces
// correctly.
func TestTopKExactOnSparseData(t *testing.T) {
	const (
		n, p       = 4, 1
		segLen     = 4096
		chunkBytes = 8192 // 1024-elem chunks wire-sized pre-compression
	)
	rng := rand.New(rand.NewSource(37))
	// ≤8 non-zeros per 1024-element chunk at shared positions (multiples
	// of 128), below k = 1% of 1024 ≈ 10.
	inputs := make([][][]float64, n)
	for r := range inputs {
		inputs[r] = make([][]float64, p*n)
		for i := range inputs[r] {
			seg := make([]float64, segLen)
			for j := 0; j < segLen; j += 128 {
				seg[j] = rng.NormFloat64()
			}
			inputs[r][i] = seg
		}
	}
	dense := runRSVariant(t, "topk-dense", n, p, inputs, WithChunkBytes(context.Background(), chunkBytes))
	got := runCompressedRS(t, "topk-sparse", n, p, inputs, chunkBytes, Compression{Codec: CodecTopK, TopKRatio: 0.01})
	for i, want := range dense {
		requireBitwiseEqual(t, fmt.Sprintf("segment %d", i), got[i], want)
	}
}

// TestCompressedAllReduceConverges: compression through reduce-scatter
// AND allgather — every rank must assemble the same result, close to
// the dense allreduce.
func TestCompressedAllReduceConverges(t *testing.T) {
	const n, p, segLen = 4, 1, 1024
	rng := rand.New(rand.NewSource(41))
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
	dense := run("ar-codec-dense", WithChunkBytes(context.Background(), 2048))
	comp := run("ar-codec-fp16", WithCompression(WithChunkBytes(context.Background(), 2048), Compression{Codec: CodecFP16}))

	// Lossy allgather consistency: the segment's owner keeps its exact
	// float64 reduction, every other rank decodes the same forwarded fp16
	// frames — so each segment shows at most two distinct bit patterns
	// across the cluster (owner's exact one, everyone else's decoded one).
	for i := range comp[0] {
		distinct := map[string]int{}
		for r := 0; r < n; r++ {
			key := fmt.Sprintf("%x", comp[r][i])
			distinct[key]++
		}
		switch len(distinct) {
		case 1: // quantization happened to be exact
		case 2:
			for _, cnt := range distinct {
				if cnt != 1 && cnt != n-1 {
					t.Fatalf("segment %d: bit-pattern split %v across ranks, want owner vs the %d decoders", i, distinct, n-1)
				}
			}
		default:
			t.Fatalf("segment %d: %d distinct results across ranks, want ≤ 2 (owner + decoders)", i, len(distinct))
		}
	}
	for i := range dense[0] {
		m := linalg.MaxAbs(dense[0][i])
		for j := range dense[0][i] {
			if e := math.Abs(comp[0][i][j] - dense[0][i][j]); e > 0.01*m {
				t.Fatalf("segment %d element %d: fp16 allreduce %g vs dense %g", i, j, comp[0][i][j], dense[0][i][j])
			}
		}
	}
}

// TestErrorFeedbackReducesBias: with the same inputs reduced every
// iteration under the coarse int8 codec, plain quantization commits the
// same signed error each time — the running average of results stays
// biased. Error feedback re-injects each iteration's error into the
// next, so the running average converges toward the dense result. The
// time-averaged error with EF must come in well under the no-EF bias.
func TestErrorFeedbackReducesBias(t *testing.T) {
	const (
		n, p, segLen = 4, 1, 512
		iters        = 12
	)
	rng := rand.New(rand.NewSource(43))
	inputs := makeDenseInputs(rng, n, p*n, segLen)
	dense := runRSVariant(t, "ef-dense", n, p, inputs, WithChunkBytes(context.Background(), 2048))

	avgErr := func(name string, comp Compression, states []*CompressionState) float64 {
		sum := map[int][]float64{}
		for it := 0; it < iters; it++ {
			cp := deepCopySegs(inputs)
			var mu sync.Mutex
			runGroup(t, n, fmt.Sprintf("%s-it%d", name, it), func(e *comm.Endpoint) error {
				c := comp
				if states != nil {
					c.State = states[e.Rank()]
				}
				ctx := WithCompression(WithChunkBytes(context.Background(), 2048), c)
				owned, err := RingReduceScatter(ctx, e, cp[e.Rank()], p, F64Ops())
				if err != nil {
					return err
				}
				mu.Lock()
				for i, v := range owned {
					if sum[i] == nil {
						sum[i] = make([]float64, len(v))
					}
					linalg.AddAssign(sum[i], v)
				}
				mu.Unlock()
				return nil
			})
		}
		var total float64
		for i, want := range dense {
			for j := range want {
				total += math.Abs(sum[i][j]/iters - want[j])
			}
		}
		return total
	}

	plain := avgErr("ef-off", Compression{Codec: CodecInt8}, nil)
	states := make([]*CompressionState, n)
	for r := range states {
		states[r] = NewCompressionState()
	}
	ef := avgErr("ef-on", Compression{Codec: CodecInt8, ErrorFeedback: true}, states)
	t.Logf("time-averaged L1 error over %d iterations: plain %.4f, EF %.4f", iters, plain, ef)
	if ef >= plain*0.5 {
		t.Fatalf("error feedback did not reduce the quantization bias: EF %.4f vs plain %.4f", ef, plain)
	}
}

// TestCompressedWireAccounting proves the compression is real wire
// bytes, not bookkeeping: exact sent-byte counts for a ring under each
// codec, and the raw/wire histogram ratio — the bytes-on-wire reduction
// — must come out at the codec's ~4× (fp16), ~8× (int8) and, keeping
// 1% of the elements, ~60× (top-k).
func TestCompressedWireAccounting(t *testing.T) {
	const (
		n, p       = 4, 1
		segLen     = 4096
		chunkBytes = 8192
	)
	for _, tc := range []struct {
		comp Compression
		// payload is the codec's bytes per step: at these sizes the
		// whole segment is one codec chunk whatever the codec.
		payload  int
		tol      float64 // error bound on the sums, relative to their ∞-norm; 0: lossy by design
		minRatio float64
	}{
		{Compression{Codec: CodecFP16}, 8 + 2*segLen, 0.01, 3.9},
		{Compression{Codec: CodecInt8}, 8 + segLen, 0.05, 7},
		{Compression{Codec: CodecTopK, TopKRatio: 0.01}, 4 + 12*topKCount(0.01, segLen), 0, 10},
	} {
		t.Run(tc.comp.Codec.String(), func(t *testing.T) {
			net := transport.NewMem()
			defer net.Close()
			eps, err := comm.NewGroup(net, "codec-wire", n)
			if err != nil {
				t.Fatal(err)
			}
			defer comm.CloseGroup(eps)
			rng := rand.New(rand.NewSource(47))
			inputs, want := makeInputs(rng, n, p*n, segLen)

			regs := make([]*metrics.Registry, n)
			var (
				mu  sync.Mutex
				got = map[int][]float64{}
				wg  sync.WaitGroup
			)
			for _, e := range eps {
				wg.Add(1)
				go func(e *comm.Endpoint) {
					defer wg.Done()
					regs[e.Rank()] = metrics.NewRegistry()
					ctx := metrics.NewContext(context.Background(), regs[e.Rank()])
					ctx = WithCompression(WithChunkBytes(ctx, chunkBytes), tc.comp)
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
				m := linalg.MaxAbs(want[i])
				for j := range want[i] {
					if e := math.Abs(got[i][j] - want[i][j]); tc.tol > 0 && e > tc.tol*math.Max(m, 1) {
						t.Fatalf("segment %d element %d: wrong sum (%g vs %g)", i, j, got[i][j], want[i][j])
					}
				}
			}

			steps := int64((n - 1) * p)
			frameBytes := int64(epochHeaderSize + chunkMetaSize + tc.payload)
			rawBytes := int64(epochHeaderSize + chunkMetaSize + 8*segLen)
			for _, e := range eps {
				st := e.Stats()
				if st.MsgsSent != steps {
					t.Fatalf("rank %d sent %d messages, want %d", e.Rank(), st.MsgsSent, steps)
				}
				if st.BytesSent != steps*frameBytes {
					t.Fatalf("rank %d sent %d bytes, want %d", e.Rank(), st.BytesSent, steps*frameBytes)
				}
			}
			var wireSum, rawSum int64
			for _, reg := range regs {
				wireSum += reg.Histogram(metrics.HistRingStepBytes).Snapshot().Sum
				rawSum += reg.Histogram(metrics.HistRingStepRawBytes).Snapshot().Sum
			}
			if wireSum != int64(n)*steps*frameBytes || rawSum != int64(n)*steps*rawBytes {
				t.Fatalf("histograms: wire %d raw %d, want %d and %d", wireSum, rawSum, int64(n)*steps*frameBytes, int64(n)*steps*rawBytes)
			}
			if ratio := float64(rawSum) / float64(wireSum); ratio < tc.minRatio {
				t.Fatalf("bytes-on-wire reduction %.2f×, want ≥ %.1f×", ratio, tc.minRatio)
			}
		})
	}
}

// TestDenseWireByteIdentical is the codec-0 contract: with the codec
// layer compiled in but no codec selected, the wire must remain
// byte-identical to the pre-codec format — same message count, same
// byte count, bit-identical results (the existing bitwise suites cover
// values; this pins the framing).
func TestDenseWireByteIdentical(t *testing.T) {
	const (
		n, p       = 4, 1
		segLen     = 4096
		chunkBytes = 8192
		chunks     = 4
	)
	net := transport.NewMem()
	defer net.Close()
	eps, err := comm.NewGroup(net, "codec-off-wire", n)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseGroup(eps)
	rng := rand.New(rand.NewSource(53))
	inputs, _ := makeInputs(rng, n, p*n, segLen)
	var wg sync.WaitGroup
	for _, e := range eps {
		wg.Add(1)
		go func(e *comm.Endpoint) {
			defer wg.Done()
			// An explicit zero Compression must leave the wire untouched.
			ctx := WithCompression(WithChunkBytes(context.Background(), chunkBytes), Compression{})
			if _, err := RingReduceScatter(ctx, e, inputs[e.Rank()], p, F64Ops()); err != nil {
				t.Errorf("rank %d: %v", e.Rank(), err)
			}
		}(e)
	}
	wg.Wait()
	wantMsgs := int64((n - 1) * p * chunks)
	wantBytes := int64(n-1) * int64(p) * int64(chunks*(epochHeaderSize+chunkMetaSize)+8*segLen)
	for _, e := range eps {
		st := e.Stats()
		if st.MsgsSent != wantMsgs || st.BytesSent != wantBytes {
			t.Fatalf("rank %d: %d msgs / %d bytes with codec none, want the dense %d / %d",
				e.Rank(), st.MsgsSent, st.BytesSent, wantMsgs, wantBytes)
		}
	}
}

// TestChaosKillMidCompressedTrain: a peer dying in the middle of a
// compressed chunk train must classify on every rank within the same
// ripple bound as the dense mid-train kill — the codec layer must not
// turn a classified failure into a hang or an unclassified error.
func TestChaosKillMidCompressedTrain(t *testing.T) {
	const (
		n            = 4
		p            = 1
		segLen       = 4096
		chunkBytes   = 1024 // 512-elem fp16 chunks → 8-chunk trains
		stepDeadline = 500 * time.Millisecond
	)
	before := runtime.NumGoroutine()
	group := "chaos-midcodec"
	victim := transport.Addr(fmt.Sprintf("comm/%s/%d", group, 1))
	net := transport.NewFaulty(transport.NewMem(), 1, &transport.FaultRule{
		Match:     func(a transport.Addr) bool { return a == victim },
		Kind:      transport.FaultKill,
		AfterMsgs: 3, // handshake + 2 compressed chunks pass; dies mid-train
	})
	defer net.Close()
	rng := rand.New(rand.NewSource(59))
	inputs, _ := makeInputs(rng, n, p*n, segLen)
	errs, elapsed := runChaosGroup(t, net, n, group, func(e *comm.Endpoint) error {
		ctx := WithChunkBytes(WithStepDeadline(context.Background(), stepDeadline), chunkBytes)
		ctx = WithCompression(ctx, Compression{Codec: CodecFP16, ErrorFeedback: true})
		_, err := RingAllReduce(ctx, e, inputs[e.Rank()], p, F64Ops())
		return err
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: mid-train kill under compression must fail the collective", r)
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
