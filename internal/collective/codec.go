package collective

// Wire-level compression codecs for the pipelined chunk train
// (DESIGN.md §13).
//
// A compressing sender replaces each chunk's fixed-stride float64
// payload with a codec payload and stamps the codec id into the top
// byte of the chunk-meta index word (codec 0 keeps the index word — and
// the whole frame — byte-identical to the uncompressed format).
// Receivers dispatch on the frame's own codec byte, so a compressing
// rank interoperates with a dense one, while a pre-codec receiver sees
// a huge chunk index and fails the train check loudly instead of
// mis-parsing the payload.
//
// Codec payloads (after the epoch/span/chunk-meta header):
//
//	fp16:  [8B float64 scale][2B half × elemCnt]
//	int8:  [8B float64 scale][1B signed × elemCnt]
//	topk:  [4B nnz][4B uint32 chunk-relative index × nnz, strictly
//	       increasing][8B float64 value × nnz]
//	       — or, when 12·k ≥ 8·n would make sparse framing larger,
//	       the dense fallback [4B 0xFFFFFFFF][8B float64 × elemCnt]
//
// Quantizing codecs scale per chunk (scale = max|v|/codec-max), so each
// chunk uses the codec's full dynamic range. With error feedback on,
// the quantization error of every element is held in a per-(channel,
// segment) residual at the sender and added back into the values before
// the next encode of that segment — the EF-SGD construction that keeps
// lossy training convergent.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sparker/internal/comm"
	"sparker/internal/linalg"
)

// Codec identifies a wire compression codec. The zero value is the
// uncompressed (bitwise-exact) dense format.
type Codec uint8

// Wire codec ids. The id travels in the top byte of the chunk-meta
// index word, so values are limited to one byte and CodecNone must stay
// zero to keep uncompressed frames byte-identical to the PR 4 format.
const (
	CodecNone Codec = 0
	CodecFP16 Codec = 1
	CodecInt8 Codec = 2
	CodecTopK Codec = 3
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFP16:
		return "fp16"
	case CodecInt8:
		return "int8"
	case CodecTopK:
		return "topk"
	case codecPacked:
		return "packed"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec converts a config string ("none", "fp16", "int8", "topk")
// into a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "none", "dense":
		return CodecNone, nil
	case "fp16":
		return CodecFP16, nil
	case "int8":
		return CodecInt8, nil
	case "topk", "top-k":
		return CodecTopK, nil
	default:
		return 0, fmt.Errorf("collective: unknown codec %q (none, fp16, int8, topk)", s)
	}
}

const (
	// defaultTopKRatio is the fraction of elements a top-k chunk keeps
	// when the caller does not choose one — the paper-adjacent k=1%.
	defaultTopKRatio = 0.01
	// f16Max is the largest finite binary16 value; the fp16 scale maps
	// the chunk's max|v| onto it.
	f16Max = 65504.0
	// topKDenseSentinel in the nnz word marks a dense-fallback top-k
	// payload (raw float64 words follow instead of index/value arrays).
	topKDenseSentinel = ^uint32(0)
	// chunkIdxMask masks the chunk index out of the meta index word; the
	// top byte is the codec id.
	chunkIdxMask = uint32(0xFFFFFF)
)

// Compression selects a wire codec for the collectives run under a
// context. The zero value means dense, bitwise-exact frames.
type Compression struct {
	// Codec picks the wire format.
	Codec Codec
	// TopKRatio is the fraction of elements a CodecTopK chunk keeps
	// (default 0.01). Ignored by the quantizing codecs.
	TopKRatio float64
	// ErrorFeedback re-injects each element's quantization error into
	// the next encode of the same segment, accumulated in State. Without
	// it the error of every iteration is simply dropped.
	ErrorFeedback bool
	// State holds the error-feedback residuals per (channel, segment).
	// It must be the same object across iterations for feedback to work
	// (core.Aggregate attaches a per-executor state); nil with
	// ErrorFeedback set gets a fresh state per collective, which degrades
	// to dropping the error.
	State *CompressionState
}

func (c Compression) enabled() bool { return c.Codec != CodecNone }

// efOn reports whether encode paths should maintain residuals.
func (c Compression) efOn() bool { return c.ErrorFeedback && c.State != nil }

// wireBytesPerElem estimates the post-compression payload bytes per
// element — what chunkElems sizes chunks by, so a chunk-bytes target
// keeps meaning *wire* bytes when a codec shrinks the payload.
func (c Compression) wireBytesPerElem() float64 {
	switch c.Codec {
	case CodecFP16:
		return 2
	case CodecInt8:
		return 1
	case CodecTopK:
		b := c.TopKRatio * 12
		if b < 1 {
			b = 1
		}
		return b
	default:
		return 8
	}
}

// CompressionState holds error-feedback residuals keyed by
// (channel, global segment index). One state per executor, shared
// across iterations; channels touch distinct keys, so the lock is held
// only for the map lookup at step start.
type CompressionState struct {
	mu  sync.Mutex
	res map[uint64][]float64
}

// NewCompressionState returns an empty residual store.
func NewCompressionState() *CompressionState {
	return &CompressionState{res: make(map[uint64][]float64)}
}

func efKey(ch, seg int) uint64 { return uint64(uint32(ch))<<32 | uint64(uint32(seg)) }

// residual returns the persistent residual slice for key, created (or
// reset on a dimension change, e.g. a different model size) as zeros.
func (s *CompressionState) residual(key uint64, n int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.res[key]
	if len(r) != n {
		r = make([]float64, n)
		s.res[key] = r
	}
	return r
}

// compressionKey carries the codec choice through a context.
type compressionKey struct{}

// WithCompression selects a wire codec for the collectives run under
// ctx. The zero Compression (CodecNone) keeps the default dense,
// bitwise-exact frames.
func WithCompression(ctx context.Context, c Compression) context.Context {
	return context.WithValue(ctx, compressionKey{}, c)
}

// CompressionFrom reports the codec choice carried by ctx.
func CompressionFrom(ctx context.Context) Compression {
	c, _ := ctx.Value(compressionKey{}).(Compression)
	return c
}

// resolveCompression validates the context's codec choice against the
// ops once per collective: compression rides the chunk train, so it
// needs the full chunk fast path plus the Floats view over 8-byte
// float64 elements. Defaults (top-k ratio, ad-hoc EF state) are filled
// here so the hot path never re-checks them.
func resolveCompression[V any](ctx context.Context, ops Ops[V]) (Compression, error) {
	comp := CompressionFrom(ctx)
	if !comp.enabled() {
		return Compression{}, nil
	}
	if comp.Codec > CodecTopK {
		return Compression{}, fmt.Errorf("collective: unknown codec %d", uint8(comp.Codec))
	}
	if !chunkCapable(ops) || ops.Floats == nil {
		return Compression{}, fmt.Errorf("collective: codec %s requires chunk-capable ops with a Floats view", comp.Codec)
	}
	if ops.ChunkEncodedSize(1) != 8 {
		return Compression{}, fmt.Errorf("collective: codec %s requires 8-byte float64 elements, ops have stride %d", comp.Codec, ops.ChunkEncodedSize(1))
	}
	if comp.TopKRatio <= 0 || comp.TopKRatio > 1 {
		comp.TopKRatio = defaultTopKRatio
	}
	if comp.ErrorFeedback && comp.State == nil {
		comp.State = NewCompressionState()
	}
	return comp, nil
}

// --- encode -------------------------------------------------------------

// encodeCodecFrame builds one compressed chunk frame as an exactly-sized
// pooled draw. res, when non-nil, is the persistent residual range for
// this chunk: the encoder adds it into the values first and stores each
// element's fresh quantization error back — classic error feedback.
func (rc *ringChan[V]) encodeCodecFrame(spanID uint64, v V, idx, total, elemOff, elemCnt, elemAll int) []byte {
	vals := rc.floats(v, elemOff, elemCnt)
	var res []float64
	if rc.efRes != nil {
		res = rc.efRes[elemOff : elemOff+elemCnt]
		sc := rc.encScratch(elemCnt)
		for i := range sc {
			sc[i] = vals[i] + res[i]
		}
		vals = sc
	}
	hs := chunkHeaderSize(spanID)

	var wire []byte
	switch rc.comp.Codec {
	case CodecFP16:
		wire = comm.GetBuffer(hs + 8 + 2*elemCnt)
		fp16Encode(wire[hs:], vals, res)
	case CodecInt8:
		wire = comm.GetBuffer(hs + 8 + elemCnt)
		int8Encode(wire[hs:], vals, res)
	default: // CodecTopK
		k := topKCount(rc.comp.TopKRatio, elemCnt)
		if 12*k >= 8*elemCnt {
			// Density threshold: sparse framing would be larger.
			wire = comm.GetBuffer(hs + 4 + 8*elemCnt)
			topKEncodeDense(wire[hs:], vals, res)
		} else {
			thr := kthLargestAbs(rc.selScratch(vals), k)
			wire = comm.GetBuffer(hs + 4 + 12*k)
			if !topKEncodeSparse(wire[hs:], vals, res, k, thr) {
				// Selection could not fill the frame (NaN magnitudes
				// poison the threshold comparisons). Recycle the draw and
				// fall back to a dense frame — never send a short train.
				comm.Release(wire)
				wire = comm.GetBuffer(hs + 4 + 8*elemCnt)
				topKEncodeDense(wire[hs:], vals, res)
			}
		}
	}
	rc.stampChunk(wire, spanID, idx, total, elemOff, elemCnt, elemAll, rc.comp.Codec)
	// Raw-equivalent accounting: what the dense encoder would have put on
	// the wire for this chunk.
	rc.lastRaw = int64(hs + 8*elemCnt)
	return wire
}

// fp16Encode writes [scale][halves] for vals into dst (pre-sized to
// 8+2n). Scale maps the chunk's max|v| onto half's max finite value, so
// every chunk uses fp16's full dynamic range regardless of gradient
// magnitude. res, when non-nil, receives each element's quantization
// error.
func fp16Encode(dst []byte, vals, res []float64) {
	scale := linalg.MaxAbs(vals) / f16Max
	if scale == 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		scale = 1
	}
	putFloat64(dst, scale)
	inv := 1 / scale
	o := 8
	for i, v := range vals {
		h := linalg.F16FromF64(v * inv)
		dst[o] = byte(h)
		dst[o+1] = byte(h >> 8)
		o += 2
		if res != nil {
			res[i] = v - scale*linalg.F16ToF64(h)
		}
	}
}

// int8Encode writes [scale][signed bytes] for vals into dst (pre-sized
// to 8+n): q = round(v/scale) clamped to ±127, scale = max|v|/127.
func int8Encode(dst []byte, vals, res []float64) {
	scale := linalg.MaxAbs(vals) / 127
	if scale == 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		scale = 1
	}
	putFloat64(dst, scale)
	inv := 1 / scale
	for i, v := range vals {
		q := math.Round(v * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[8+i] = byte(int8(q))
		if res != nil {
			res[i] = v - q*scale
		}
	}
}

// topKCount is the kept-element count for an n-element chunk: at least
// one, at most n.
func topKCount(ratio float64, n int) int {
	k := int(ratio*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// topKEncodeDense writes the dense-fallback payload: the sentinel nnz
// word, then raw float64 words. Values travel exact, so the residual
// range zeroes.
func topKEncodeDense(dst []byte, vals, res []float64) {
	putUint32(dst, topKDenseSentinel)
	o := 4
	for i, v := range vals {
		putFloat64(dst[o:], v)
		o += 8
		if res != nil {
			res[i] = 0
		}
	}
}

// topKEncodeSparse emits exactly k (index, value) pairs — every element
// with |v| above the k-th-largest threshold plus enough threshold ties
// to fill the frame — in ascending index order, matching the
// SparseVector strictly-increasing layout. Unsent elements accumulate
// fully into res (their entire value is the "quantization error").
// Reports false when fewer than k elements were emitted, which only
// happens when NaNs defeat the magnitude comparisons; the caller falls
// back to a dense frame.
func topKEncodeSparse(dst []byte, vals, res []float64, k int, thr float64) bool {
	putUint32(dst, uint32(k))
	idxO := 4
	valO := 4 + 4*k
	ties := k
	for _, v := range vals {
		if math.Abs(v) > thr {
			ties--
		}
	}
	if ties < 0 {
		ties = 0
	}
	emitted := 0
	for i, v := range vals {
		a := math.Abs(v)
		take := false
		if emitted < k {
			if a > thr {
				take = true
			} else if a == thr && ties > 0 {
				take = true
				ties--
			}
		}
		if take {
			putUint32(dst[idxO:], uint32(i))
			putFloat64(dst[valO:], v)
			idxO += 4
			valO += 8
			emitted++
			if res != nil {
				res[i] = 0
			}
		} else if res != nil {
			res[i] = v
		}
	}
	return emitted == k
}

// kthLargestAbs returns the k-th largest value in buf (1 ≤ k ≤
// len(buf)), reordering buf in place — iterative quickselect with
// median-of-three pivots, deterministic for a given input. buf is the
// caller's scratch copy of the chunk's |v| values.
func kthLargestAbs(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	target := len(buf) - k
	for lo < hi {
		// Median-of-three pivot, parked at hi.
		mid := lo + (hi-lo)/2
		if buf[mid] < buf[lo] {
			buf[mid], buf[lo] = buf[lo], buf[mid]
		}
		if buf[hi] < buf[lo] {
			buf[hi], buf[lo] = buf[lo], buf[hi]
		}
		if buf[hi] < buf[mid] {
			buf[hi], buf[mid] = buf[mid], buf[hi]
		}
		pivot := buf[mid]
		buf[mid], buf[hi] = buf[hi], buf[mid]
		// Lomuto partition.
		p := lo
		for i := lo; i < hi; i++ {
			if buf[i] < pivot {
				buf[i], buf[p] = buf[p], buf[i]
				p++
			}
		}
		buf[p], buf[hi] = buf[hi], buf[p]
		switch {
		case p == target:
			return buf[p]
		case p < target:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return buf[target]
}

// encScratch returns the channel's reusable error-feedback encode
// scratch (values + residual), grown amortized.
func (rc *ringChan[V]) encScratch(n int) []float64 {
	if cap(rc.encBuf) < n {
		rc.encBuf = make([]float64, n)
	}
	rc.encBuf = rc.encBuf[:n]
	return rc.encBuf
}

// selScratch fills the channel's selection scratch with |vals| for the
// quickselect, grown amortized.
func (rc *ringChan[V]) selScratch(vals []float64) []float64 {
	if cap(rc.selBuf) < len(vals) {
		rc.selBuf = make([]float64, len(vals))
	}
	rc.selBuf = rc.selBuf[:len(vals)]
	for i, v := range vals {
		rc.selBuf[i] = math.Abs(v)
	}
	return rc.selBuf
}

// --- decode -------------------------------------------------------------

// quantPayload splits a quantized chunk payload into its scale word and
// element body, validating the exact length.
func quantPayload(payload []byte, n, per int) (float64, []byte, error) {
	want := 8 + per*n
	if len(payload) != want {
		return 0, nil, fmt.Errorf("collective: quantized chunk payload %d bytes, want %d (%d elems × %dB + scale)", len(payload), want, n, per)
	}
	return float64At(payload, 0), payload[8:], nil
}

// fp16AddInto performs dst[i] += scale·half(body[i]) — the fused
// dequantize-reduce. Element adds are independent, so disjoint shards
// stay bitwise identical to the sequential pass.
func fp16AddInto(dst []float64, body []byte, scale float64) {
	for i := range dst {
		h := uint16(body[2*i]) | uint16(body[2*i+1])<<8
		dst[i] += scale * linalg.F16ToF64(h)
	}
}

// fp16SetInto is the allgather assembly form: dst[i] = scale·half.
func fp16SetInto(dst []float64, body []byte, scale float64) {
	for i := range dst {
		h := uint16(body[2*i]) | uint16(body[2*i+1])<<8
		dst[i] = scale * linalg.F16ToF64(h)
	}
}

// int8AddInto performs dst[i] += scale·int8(body[i]).
func int8AddInto(dst []float64, body []byte, scale float64) {
	for i := range dst {
		dst[i] += scale * float64(int8(body[i]))
	}
}

// int8SetInto is the allgather assembly form.
func int8SetInto(dst []float64, body []byte, scale float64) {
	for i := range dst {
		dst[i] = scale * float64(int8(body[i]))
	}
}

// topKParse validates a top-k payload against the chunk's element count
// and returns (k, idxBytes, valBytes) for a sparse payload or
// (-1, nil, denseBytes) for a dense fallback.
func topKParse(payload []byte, elemCnt int) (int, []byte, []byte, error) {
	if len(payload) < 4 {
		return 0, nil, nil, fmt.Errorf("collective: top-k chunk payload %d bytes, shorter than its nnz word", len(payload))
	}
	nnz := uint32At(payload, 0)
	if nnz == topKDenseSentinel {
		if len(payload) != 4+8*elemCnt {
			return 0, nil, nil, fmt.Errorf("collective: dense-fallback top-k payload %d bytes, want %d", len(payload), 4+8*elemCnt)
		}
		return -1, nil, payload[4:], nil
	}
	k := int(nnz)
	if k < 0 || k > elemCnt || len(payload) != 4+12*k {
		return 0, nil, nil, fmt.Errorf("collective: corrupt top-k payload (nnz %d, %d bytes, %d elems)", k, len(payload), elemCnt)
	}
	return k, payload[4 : 4+4*k], payload[4+4*k:], nil
}

// topKScatterAdd scatter-adds sparse positions [lo, hi) into dst,
// verifying the strictly-increasing index contract as it goes (the
// check also proves disjointness across shards: each worker re-reads
// its left boundary, so a violation anywhere in the array is caught by
// exactly one shard). Reduction happens straight out of the wire bytes
// — no densify, no intermediate vector.
func topKScatterAdd(dst []float64, idxB, valB []byte, lo, hi int) error {
	prev := int32(-1)
	if lo > 0 {
		prev = int32(uint32At(idxB, 4*(lo-1)))
	}
	for i := lo; i < hi; i++ {
		ix := int32(uint32At(idxB, 4*i))
		if ix <= prev || int(ix) >= len(dst) {
			return fmt.Errorf("collective: top-k index %d at position %d violates the strictly-increasing layout (prev %d, dim %d)", ix, i, prev, len(dst))
		}
		dst[ix] += float64At(valB, 8*i)
		prev = ix
	}
	return nil
}

// reduceCodecChunk is the compressed counterpart of reduceChunk: fused
// decode-reduce straight out of the codec payload into the float view
// of acc, sharded across the WithCores worker budget exactly like the
// dense path. Quantized payloads shard by element range; sparse top-k
// payloads shard by *position* range of the index array, which the
// strictly-increasing contract proves race-free.
func (rc *ringChan[V]) reduceCodecChunk(acc V, fr frame) error {
	dst := rc.floats(acc, fr.elemOff, fr.elemCnt)
	switch fr.codec {
	case CodecFP16, CodecInt8:
		per := 2
		if fr.codec == CodecInt8 {
			per = 1
		}
		scale, body, err := quantPayload(fr.payload, fr.elemCnt, per)
		if err != nil {
			return err
		}
		add := fp16AddInto
		if fr.codec == CodecInt8 {
			add = int8AddInto
		}
		w := rc.parWorkers(fr.elemCnt)
		if w <= 1 {
			add(dst, body, scale)
			return nil
		}
		linalg.ParallelFor(fr.elemCnt, w, func(lo, hi int) {
			add(dst[lo:hi], body[per*lo:per*hi], scale)
		})
		return nil
	case CodecTopK:
		k, idxB, valB, err := topKParse(fr.payload, fr.elemCnt)
		if err != nil {
			return err
		}
		if k < 0 { // dense fallback: raw words, same shard shape as dense
			w := rc.parWorkers(fr.elemCnt)
			if w <= 1 {
				rawAddInto(dst, valB)
				return nil
			}
			linalg.ParallelFor(fr.elemCnt, w, func(lo, hi int) {
				rawAddInto(dst[lo:hi], valB[8*lo:8*hi])
			})
			return nil
		}
		w := rc.parWorkers(k)
		if w <= 1 {
			return topKScatterAdd(dst, idxB, valB, 0, k)
		}
		var (
			mu       sync.Mutex
			firstErr error
		)
		linalg.ParallelFor(k, w, func(lo, hi int) {
			if err := topKScatterAdd(dst, idxB, valB, lo, hi); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		})
		return firstErr
	default:
		return fmt.Errorf("collective: unknown codec %d in chunk train", uint8(fr.codec))
	}
}

// rawAddInto adds raw float64 words into dst — the dense-fallback
// reduce kernel, identical math to decodeReduceChunkF64.
func rawAddInto(dst []float64, body []byte) {
	for i := range dst {
		dst[i] += float64At(body, 8*i)
	}
}

// decodeCodecChunkInto is the allgather assembly form: decode the codec
// payload into the float view of dst with set (not add) semantics.
// Sparse payloads zero the chunk's range first — unsent elements are
// zero by construction.
func (rc *ringChan[V]) decodeCodecChunkInto(dst V, fr frame) error {
	out := rc.floats(dst, fr.elemOff, fr.elemCnt)
	switch fr.codec {
	case CodecFP16:
		scale, body, err := quantPayload(fr.payload, fr.elemCnt, 2)
		if err != nil {
			return err
		}
		fp16SetInto(out, body, scale)
		return nil
	case CodecInt8:
		scale, body, err := quantPayload(fr.payload, fr.elemCnt, 1)
		if err != nil {
			return err
		}
		int8SetInto(out, body, scale)
		return nil
	case CodecTopK:
		k, idxB, valB, err := topKParse(fr.payload, fr.elemCnt)
		if err != nil {
			return err
		}
		if k < 0 {
			for i := range out {
				out[i] = float64At(valB, 8*i)
			}
			return nil
		}
		for i := range out {
			out[i] = 0
		}
		return topKScatterAdd(out, idxB, valB, 0, k)
	default:
		return fmt.Errorf("collective: unknown codec %d in chunk train", uint8(fr.codec))
	}
}
