// Package collective implements the reduction algorithms Sparker builds
// on: the ring-based reduce-scatter (Patarasuk & Yuan) used by split
// aggregation, ring allgather/allreduce, and a binomial tree reduce (the
// shape of Spark's treeAggregate).
//
// All algorithms are generic over the segment type V. Values cross
// executor boundaries serialized via the Ops callbacks, mirroring the
// paper's splitOp/reduceOp/concatOp callback design.
//
// The data plane is allocation-free at steady state: wire buffers come
// from the shared pool (comm.GetBuffer), ownership flows with the
// message through a persistent per-channel sender, and the receiver
// reduces directly out of the wire bytes (Ops.DecodeReduceInto) before
// releasing the buffer back to the pool. See DESIGN.md "Performance
// notes" for the ownership contract.
package collective

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sparker/internal/comm"
	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/obsv"
	"sparker/internal/trace"
)

// stepDeadlineKey carries the per-step deadline through a context.
type stepDeadlineKey struct{}

// WithStepDeadline returns a context instructing every collective
// running under it to bound each communication step (one pipelined
// send+receive) by d, so a silent peer surfaces as comm.ErrPeerTimeout
// after d instead of hanging the ring. d <= 0 disables the bound.
func WithStepDeadline(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, stepDeadlineKey{}, d)
}

// StepDeadlineFrom reports the per-step deadline carried by ctx, or 0.
func StepDeadlineFrom(ctx context.Context) time.Duration {
	d, _ := ctx.Value(stepDeadlineKey{}).(time.Duration)
	return d
}

// stepContext derives the context bounding one collective step. With no
// step deadline the parent is returned as-is, preserving the
// zero-overhead direct receive path.
func stepContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := StepDeadlineFrom(ctx); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// epochKey carries the collective epoch through a context.
type epochKey struct{}

// WithEpoch tags every ring message of collectives run under ctx with
// epoch, and makes their receives discard frames from older epochs.
// An aborted collective (timeout, dead peer) can leave undelivered
// frames buffered in its neighbors; without the tag the next collective
// on the same channels would consume them as its own and silently
// reduce stale data. Epochs must increase across collectives sharing an
// endpoint (the core layer derives them from the op id).
func WithEpoch(ctx context.Context, epoch uint32) context.Context {
	return context.WithValue(ctx, epochKey{}, epoch)
}

// EpochFrom reports the epoch carried by ctx, or 0 (untagged).
func EpochFrom(ctx context.Context) uint32 {
	e, _ := ctx.Value(epochKey{}).(uint32)
	return e
}

// epochHeaderSize prefixes every ring frame: 4 bytes of epoch.
const epochHeaderSize = 4

// spanFlag marks a traced frame: when set on the epoch word, an 8-byte
// sender span ID follows the epoch header. chunkFlag marks one chunk of
// a pipelined segment train: a 20-byte chunk header (index, count,
// element range — see pipeline.go) follows the epoch/span words. Epoch
// values are masked to the low 30 bits on both encode and compare, and
// receivers dispatch on each frame's own flags, so traced and untraced,
// chunked and whole-segment frames mix freely on one channel (DESIGN.md
// §10 and §11).
const (
	spanFlag      = uint32(1) << 31
	chunkFlag     = uint32(1) << 30
	epochMask     = ^(spanFlag | chunkFlag)
	spanIDSize    = 8
	chunkMetaSize = 20
)

// epochNewer reports whether got is ahead of want in 30-bit wraparound
// order (the sign of their shifted difference, as in serial-number
// arithmetic).
func epochNewer(got, want uint32) bool {
	return int32((got-want)<<2) > 0
}

// frameHeaderSize is the ring-frame header length: the epoch word plus,
// for traced frames (span != 0), the sender span ID.
func frameHeaderSize(span uint64) int {
	if span != 0 {
		return epochHeaderSize + spanIDSize
	}
	return epochHeaderSize
}

// encodeFrame builds a ring frame — epoch header, optional sender span
// ID, then the encoded segment — into buf, a pooled draw whose capacity
// is reused. The returned slice may be a reallocation; the abandoned
// draw goes back to the pool.
func encodeFrame[V any](ops Ops[V], epoch uint32, span uint64, buf []byte, v V) []byte {
	hs := frameHeaderSize(span)
	hdr := buf
	if cap(hdr) < hs {
		hdr = make([]byte, hs)
		releaseIfAbandoned(buf, hdr)
	} else {
		hdr = hdr[:hs]
	}
	out := ops.Encode(hdr, v)
	releaseIfAbandoned(hdr, out)
	word := epoch & epochMask
	if span != 0 {
		word |= spanFlag
		putUint64(out[epochHeaderSize:], span)
	}
	putUint32(out, word)
	return out
}

// telemetry bundles the per-step observability handles of one
// collective: the tracer + parent span (usually the executor task span,
// propagated through the dispatch context) and the ring-step and
// ring-chunk histograms of the executor's registry. Resolved once per
// collective so the step loop pays a single `on` branch when everything
// is disabled.
type telemetry struct {
	on         bool
	tr         *trace.Tracer
	parent     trace.SpanContext
	rec        *obsv.Ring
	stepNS     *metrics.Histogram
	stepBytes  *metrics.Histogram
	stepRaw    *metrics.Histogram
	chunkNS    *metrics.Histogram
	chunkBytes *metrics.Histogram
}

func telemetryFrom(ctx context.Context) telemetry {
	var tel telemetry
	tel.tr, tel.parent = trace.FromContext(ctx)
	tel.rec = obsv.FromContext(ctx)
	if reg := metrics.FromContext(ctx); reg != nil {
		tel.stepNS = reg.Histogram(metrics.HistRingStepNS)
		tel.stepBytes = reg.Histogram(metrics.HistRingStepBytes)
		tel.stepRaw = reg.Histogram(metrics.HistRingStepRawBytes)
		tel.chunkNS = reg.Histogram(metrics.HistRingChunkNS)
		tel.chunkBytes = reg.Histogram(metrics.HistRingChunkBytes)
	}
	tel.on = tel.tr != nil || tel.stepNS != nil || tel.rec != nil
	return tel
}

// startStep opens one ring-step span (nil when tracing is off). The
// step's own span ID rides in the outgoing frame header so the
// receiving rank can link the matching step on the neighbor's track.
// Value receiver on purpose: a pointer receiver would force the
// caller's telemetry struct to escape, costing a heap allocation per
// collective even with telemetry disabled.
func (tel telemetry) startStep(op string, ch, k int, epoch uint32) *trace.ActiveSpan {
	span := tel.tr.StartSpan("ring-step", tel.parent)
	if span != nil {
		span.SetAttr("op", op)
		span.SetInt("channel", int64(ch))
		span.SetInt("step", int64(k))
		span.SetInt("epoch", int64(epoch))
	}
	return span
}

// drainSend waits, bounded by ctx, for an in-flight async send that an
// aborting error path can no longer use. Abandoning the completion on
// context expiry is safe: the channel is buffered and its owning loop
// is exiting.
func drainSend(ctx context.Context, done chan error) {
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// Ops supplies the type-specific callbacks for a collective over
// segments of type V. Reduce, Encode and Decode are required; the
// remaining callbacks are optional fast paths the collectives use when
// present.
type Ops[V any] struct {
	// Reduce merges b into a and returns the result. It may mutate and
	// return a; b must not be retained.
	Reduce func(a, b V) V
	// Encode appends the wire form of v to dst.
	Encode func(dst []byte, v V) []byte
	// Decode parses one value from src.
	Decode func(src []byte) (V, error)

	// EncodeTo, when set, encodes v into dst reusing dst's capacity
	// (dst's length is ignored) and returns the encoded slice, which
	// may be a reallocation when dst is too small. Collectives call it
	// with pooled scratch so steady-state encoding allocates nothing.
	EncodeTo func(dst []byte, v V) []byte
	// DecodeReduceInto, when set, fuses Decode and Reduce: it reduces
	// the value encoded in wire directly into acc — no intermediate
	// decoded value — and returns the updated accumulator. It must be
	// elementwise-identical to Decode-then-Reduce (the property tests
	// check bitwise equality) and must not retain wire. Setting it also
	// asserts that Decode never retains its input, which lets the
	// collectives release receive buffers back to the wire pool.
	DecodeReduceInto func(acc V, wire []byte) (V, error)
	// EncodedSize, when set, returns the exact wire size Encode would
	// produce for v. The collectives use it to draw an exactly-sized
	// pooled buffer before the very first encode of a loop, so even
	// step 0 avoids a grow-and-copy.
	EncodedSize func(v V) int

	// The six callbacks below enable the pipelined chunk fast path
	// (DESIGN.md §11) and must be set together; with any missing the
	// collectives fall back to whole-segment frames. A chunk payload is
	// a fixed-stride array of element words with no per-chunk length
	// prefix — counts ride in the frame's chunk header — so byte ranges
	// map linearly onto element ranges and a segment can be resegmented
	// at any element boundary.

	// Elems reports the element count of v.
	Elems func(v V) int
	// ChunkEncodedSize reports the exact payload size of an n-element
	// chunk. It must be linear in n (ChunkEncodedSize(n) ==
	// n·ChunkEncodedSize(1)); the collectives verify linearity once and
	// disable chunking otherwise.
	ChunkEncodedSize func(n int) int
	// EncodeChunkTo appends elements [off, off+n) of v to dst.
	EncodeChunkTo func(dst []byte, v V, off, n int) []byte
	// DecodeReduceChunkInto reduces a chunk payload into elements
	// [off, off+len) of acc in place — acc's identity is preserved, so
	// disjoint chunks of one segment may be reduced concurrently. It
	// must be elementwise identical to DecodeReduceInto over the same
	// range (the property tests check bitwise equality) and must not
	// retain payload.
	DecodeReduceChunkInto func(acc V, off int, payload []byte) error
	// MakeSegment returns a fresh n-element segment for chunked
	// allgather receives to assemble into.
	MakeSegment func(n int) V
	// DecodeChunkInto decodes a chunk payload into elements
	// [off, off+len) of dst. It must not retain payload.
	DecodeChunkInto func(dst V, off int, payload []byte) error

	// Packed, when set, offers the zero-suppressed packed chunk form on
	// top of the chunk fast path (a pointer, so that Ops stays small
	// enough for the collectives' goroutines to capture by value).
	Packed *PackedOps[V]
}

// PackedOps is the zero-suppressed packed chunk form (packed.go,
// DESIGN.md §11); all four callbacks are required. Supplying it asserts
// that Reduce is IEEE addition of element words and that segments are
// summed up from +0.0 — the only algebra under which not shipping a zero
// word is value-exact. Ops without it never send a packed frame and fail
// a train that carries one.
type PackedOps[V any] struct {
	// ChunkSize is the encoder's counting pass over elements
	// [off, off+n) of v: the exact packed payload size when packing wins
	// (at most half the dense bytes), else 0 — the chunk then goes dense.
	ChunkSize func(v V, off, n int) int
	// EncodeChunkTo appends the packed form of elements [off, off+n) of
	// v to dst, which has at least ChunkSize bytes of spare capacity.
	EncodeChunkTo func(dst []byte, v V, off, n int) []byte
	// DecodeReduceChunkInto reduces the n-element packed payload into
	// elements [off, off+n) of acc in place. It validates the whole
	// payload before its first store (ErrMalformedChunk) and must not
	// retain it.
	DecodeReduceChunkInto func(acc V, off, n int, payload []byte) error
	// DecodeChunkInto decodes the n-element packed payload into elements
	// [off, off+n) of dst — clear the range, then set the marked elements
	// — with the same validate-first, non-retaining contract.
	DecodeChunkInto func(dst V, off, n int, payload []byte) error
}

// sizeHint picks the pooled-buffer size for the next encode: the exact
// encoded size when the ops can report it, otherwise the running size
// of the previous step's wire.
func sizeHint[V any](ops Ops[V], prev int, v V) int {
	if ops.EncodedSize != nil {
		return ops.EncodedSize(v)
	}
	return prev
}

// encodeInto encodes v reusing buf's capacity, via the EncodeTo fast
// path when available. buf must be an unaliased pool draw: when the
// encoder outgrows it and reallocates, the abandoned draw goes back to
// the pool instead of the garbage collector.
func encodeInto[V any](ops Ops[V], buf []byte, v V) []byte {
	var out []byte
	if ops.EncodeTo != nil {
		out = ops.EncodeTo(buf, v)
	} else {
		out = ops.Encode(buf[:0], v)
	}
	releaseIfAbandoned(buf, out)
	return out
}

// releaseIfAbandoned returns the pooled draw to the pool when the
// encoder reallocated and out no longer shares drawn's backing array.
func releaseIfAbandoned(drawn, out []byte) {
	if cap(drawn) > 0 && (cap(out) == 0 || &drawn[:1][0] != &out[:1][0]) {
		comm.Release(drawn)
	}
}

// f64Packed is F64Ops' packed form: its Reduce is float64 addition.
var f64Packed = &PackedOps[[]float64]{
	ChunkSize:             packedSizeF64,
	EncodeChunkTo:         encodePackedF64,
	DecodeReduceChunkInto: decodeReducePackedF64,
	DecodeChunkInto:       decodePackedF64,
}

// F64Ops returns elementwise-sum Ops for []float64 segments — the
// aggregator shape of every MLlib workload in the paper — with all
// fast paths populated.
func F64Ops() Ops[[]float64] {
	return Ops[[]float64]{
		Reduce: func(a, b []float64) []float64 {
			linalg.AddAssign(a, b)
			return a
		},
		Encode:           encodeF64,
		Decode:           decodeF64,
		EncodeTo:         func(dst []byte, v []float64) []byte { return encodeF64(dst[:0], v) },
		DecodeReduceInto: decodeReduceIntoF64,
		EncodedSize:      func(v []float64) int { return 4 + 8*len(v) },

		Elems:                 func(v []float64) int { return len(v) },
		ChunkEncodedSize:      func(n int) int { return 8 * n },
		EncodeChunkTo:         encodeChunkF64,
		DecodeReduceChunkInto: decodeReduceChunkF64,
		MakeSegment:           func(n int) []float64 { return make([]float64, n) },
		DecodeChunkInto:       decodeChunkF64,

		Packed: f64Packed,
	}
}

// encodeF64 appends a length-prefixed []float64 to dst, growing dst at
// most once to the exact 4+8·len size and then writing 8-byte words
// directly — no grow-through-append on the hot path.
func encodeF64(dst []byte, v []float64) []byte {
	need := 4 + 8*len(v)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	off := len(dst)
	dst = dst[:off+need]
	putUint32(dst[off:], uint32(len(v)))
	off += 4
	for _, f := range v {
		putFloat64(dst[off:], f)
		off += 8
	}
	return dst
}

// decodeF64 parses a length-prefixed []float64. The prefix is validated
// against len(src) before any allocation, so a corrupt prefix cannot
// trigger a huge make.
func decodeF64(src []byte) ([]float64, error) {
	n, body, err := f64WireBody(src)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64At(body, 8*i)
	}
	return out, nil
}

// f64WireBody validates a []float64 wire frame and returns its element
// count and payload bytes.
func f64WireBody(src []byte) (int, []byte, error) {
	if len(src) < 4 {
		return 0, nil, fmt.Errorf("collective: short []float64")
	}
	n := int(uint32At(src, 0))
	if n < 0 || n > (len(src)-4)/8 {
		return 0, nil, fmt.Errorf("collective: corrupt []float64 length prefix %d (%d payload bytes)", n, len(src)-4)
	}
	return n, src[4:], nil
}

// decodeReduceIntoF64 is the fused decode-reduce: acc[i] += wire[i]
// straight out of the wire bytes, 4-wide unrolled, no intermediate
// slice. Element adds are independent, so the result is bitwise
// identical to decodeF64 followed by F64Ops().Reduce.
func decodeReduceIntoF64(acc []float64, wire []byte) ([]float64, error) {
	n, body, err := f64WireBody(wire)
	if err != nil {
		return nil, err
	}
	if n != len(acc) {
		// A mismatched frame is a data-plane fault (corrupt or misrouted
		// message), so it must fail the step, not kill the process.
		return nil, fmt.Errorf("collective: segment length mismatch %d vs %d", len(acc), n)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		acc[i] += float64At(body, 8*i)
		acc[i+1] += float64At(body, 8*i+8)
		acc[i+2] += float64At(body, 8*i+16)
		acc[i+3] += float64At(body, 8*i+24)
	}
	for ; i < n; i++ {
		acc[i] += float64At(body, 8*i)
	}
	return acc, nil
}

// encodeChunkF64 appends elements [off, off+n) of v to dst as raw
// 8-byte words — no length prefix; the chunk header carries the counts.
// Grows dst at most once to the exact size, like encodeF64.
func encodeChunkF64(dst []byte, v []float64, off, n int) []byte {
	need := 8 * n
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	o := len(dst)
	dst = dst[:o+need]
	for _, f := range v[off : off+n] {
		putFloat64(dst[o:], f)
		o += 8
	}
	return dst
}

// f64ChunkBody validates a raw-word chunk payload against the target
// range [off, off+n) of a seg-element segment and returns the element
// count.
func f64ChunkBody(payload []byte, off, seg int) (int, error) {
	if len(payload)%8 != 0 {
		return 0, fmt.Errorf("collective: chunk payload %d bytes is not word-aligned", len(payload))
	}
	n := len(payload) / 8
	if off < 0 || off+n > seg {
		return 0, fmt.Errorf("collective: chunk [%d,%d) outside segment of %d elems", off, off+n, seg)
	}
	return n, nil
}

// decodeReduceChunkF64 is the chunked fused decode-reduce:
// acc[off+i] += word i straight out of the payload, the same 4-wide
// unrolled kernel as decodeReduceIntoF64 over a sub-range. Element adds
// are independent and in-place, so sharding a chunk across cores stays
// bitwise identical to the sequential fused pass.
func decodeReduceChunkF64(acc []float64, off int, payload []byte) error {
	n, err := f64ChunkBody(payload, off, len(acc))
	if err != nil {
		return err
	}
	dst := acc[off : off+n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += float64At(payload, 8*i)
		dst[i+1] += float64At(payload, 8*i+8)
		dst[i+2] += float64At(payload, 8*i+16)
		dst[i+3] += float64At(payload, 8*i+24)
	}
	for ; i < n; i++ {
		dst[i] += float64At(payload, 8*i)
	}
	return nil
}

// decodeChunkF64 copies a chunk payload into dst[off:] — the allgather
// assembly path.
func decodeChunkF64(dst []float64, off int, payload []byte) error {
	n, err := f64ChunkBody(payload, off, len(dst))
	if err != nil {
		return err
	}
	out := dst[off : off+n]
	for i := range out {
		out[i] = float64At(payload, 8*i)
	}
	return nil
}

// decodeReduce applies the fused path when available, falling back to
// Decode-then-Reduce. It reports whether the wire buffer is provably
// unretained and may be released to the pool — true for the fused path
// even on error, since DecodeReduceInto never retains wire.
func decodeReduce[V any](ops Ops[V], acc V, wire []byte) (V, bool, error) {
	if ops.DecodeReduceInto != nil {
		out, err := ops.DecodeReduceInto(acc, wire)
		if err != nil {
			return acc, true, err
		}
		return out, true, nil
	}
	v, err := ops.Decode(wire)
	if err != nil {
		return acc, false, err
	}
	return ops.Reduce(acc, v), false, nil
}

// RingReduceScatter reduces P×N segments held by each of N ranks so
// that afterwards every rank owns P fully-reduced segments (one per
// parallel channel). segs must have length P×N; segment j of channel p
// is segs[p*N + j], and all ranks must agree on this layout.
//
// The returned map is globalSegmentIndex -> reduced value. Rank r ends
// up owning, for each channel p, global segment p*N + (r+1)%N — the
// paper's Figure 11 schedule, run P-way in parallel over the PDR.
//
// ctx bounds the whole collective; wrap it with WithStepDeadline to
// additionally bound each pipelined step, classifying a silent peer as
// comm.ErrPeerTimeout and a dead one as comm.ErrPeerDown.
func RingReduceScatter[V any](ctx context.Context, e *comm.Endpoint, segs []V, parallelism int, ops Ops[V]) (map[int]V, error) {
	n := e.Size()
	p := parallelism
	if p <= 0 {
		return nil, fmt.Errorf("collective: parallelism must be positive, got %d", p)
	}
	if len(segs) != p*n {
		return nil, fmt.Errorf("collective: need %d segments (P=%d × N=%d), got %d", p*n, p, n, len(segs))
	}

	owned := make(map[int]V, p)
	if n == 1 {
		// Single rank: everything is already reduced.
		for i, s := range segs {
			owned[i] = s
		}
		return owned, nil
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	epoch := EpochFrom(ctx)
	// Telemetry handles, chunk plan and core budget resolved once
	// per collective: with neither a tracer nor a registry in ctx the
	// per-step cost is one branch and no time syscalls, keeping the PR 1
	// zero-allocation path intact.
	tel := telemetryFrom(ctx)
	chunkBytes := resolveChunkBytes(ctx)
	cores := CoresFrom(ctx)
	r := e.Rank()
	for ch := 0; ch < p; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			// A panic in a reduce callback (e.g. on corrupt or misrouted
			// data) must fail the collective, not kill the process.
			defer func() {
				if p := recover(); p != nil {
					setErr(fmt.Errorf("collective: rank %d ch %d panic: %v", r, ch, p))
				}
			}()
			block := segs[ch*n : (ch+1)*n]
			cur := make([]V, n)
			copy(cur, block)
			// One transfer engine per channel goroutine: its completion
			// channels, size hint and chunk plan persist across the
			// k-step loop, cycling pooled buffers instead of allocating
			// N-1 times.
			var rc ringChan[V]
			rc.init(e, ops, ch, epoch, tel, chunkBytes, cores)
			for k := 0; k < n-1; k++ {
				if err := ringStepRS(ctx, &rc, cur, r, n, k); err != nil {
					setErr(err)
					return
				}
			}
			final := (r + 1) % n
			mu.Lock()
			owned[ch*n+final] = cur[final]
			mu.Unlock()
		}(ch)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return owned, nil
}

// ringStepRS runs one reduce-scatter step on one channel: open the step
// span, derive the step context, stream segment sendIdx to the
// successor while reducing the predecessor's segment into recvIdx.
func ringStepRS[V any](ctx context.Context, rc *ringChan[V], cur []V, r, n, k int) (err error) {
	var span *trace.ActiveSpan
	if rc.tel.on {
		start := time.Now()
		span = rc.tel.startStep("reduce-scatter", rc.ch, k, rc.epoch)
		defer func() {
			ns := time.Since(start).Nanoseconds()
			rc.tel.stepNS.Observe(ns)
			rc.tel.rec.Step("reduce-scatter", ns, rc.stepBytes, rc.epoch, rc.ch, k)
			span.EndErr(err)
		}()
	}
	sctx, cancel := stepContext(ctx)
	defer cancel()
	sendIdx := ((r-k)%n + n) % n
	recvIdx := ((r-k-1)%n + n) % n
	acc, err := rc.transferReduce(sctx, span, cur[sendIdx], cur[recvIdx])
	if err != nil {
		return fmt.Errorf("collective: rank %d ch %d step %d: %w", r, rc.ch, k, err)
	}
	cur[recvIdx] = acc
	return nil
}

// RingAllGather circulates each rank's owned segments around the ring
// until every rank holds all N segments of every channel. owned is the
// result of RingReduceScatter; the returned slice has length P×N with
// every entry populated identically on all ranks. ctx bounds the
// collective exactly as in RingReduceScatter.
func RingAllGather[V any](ctx context.Context, e *comm.Endpoint, owned map[int]V, parallelism int, ops Ops[V]) ([]V, error) {
	n := e.Size()
	p := parallelism
	all := make([]V, p*n)
	for i, v := range owned {
		if i < 0 || i >= p*n {
			return nil, fmt.Errorf("collective: owned segment index %d out of range", i)
		}
		all[i] = v
	}
	if n == 1 {
		return all, nil
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	epoch := EpochFrom(ctx)
	tel := telemetryFrom(ctx)
	chunkBytes := resolveChunkBytes(ctx)
	cores := CoresFrom(ctx)
	r := e.Rank()
	for ch := 0; ch < p; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					setErr(fmt.Errorf("collective: allgather rank %d ch %d panic: %v", r, ch, p))
				}
			}()
			// After reduce-scatter rank r owns block index (r+1)%n.
			have := (r + 1) % n
			var rc ringChan[V]
			rc.init(e, ops, ch, epoch, tel, chunkBytes, cores)
			// Frames received at step k are forwarded verbatim at step
			// k+1 (header rewrite only — no decode/re-encode on the
			// relay path, DESIGN.md §11); fwd carries them across steps.
			var fwd []fwdFrame
			for k := 0; k < n-1; k++ {
				next, err := ringStepAG(ctx, &rc, all, have, r, n, k, fwd)
				if err != nil {
					setErr(err)
					return
				}
				fwd = next
			}
		}(ch)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return all, nil
}

// ringStepAG runs one allgather step on one channel: relay the segment
// gathered last step (or encode our own on step 0) while assembling the
// predecessor's frames into all[recvIdx]. Returns the frames to forward
// on the next step.
func ringStepAG[V any](ctx context.Context, rc *ringChan[V], all []V, have, r, n, k int, fwd []fwdFrame) (next []fwdFrame, err error) {
	var span *trace.ActiveSpan
	if rc.tel.on {
		start := time.Now()
		span = rc.tel.startStep("allgather", rc.ch, k, rc.epoch)
		defer func() {
			ns := time.Since(start).Nanoseconds()
			rc.tel.stepNS.Observe(ns)
			rc.tel.rec.Step("allgather", ns, rc.stepBytes, rc.epoch, rc.ch, k)
			span.EndErr(err)
		}()
	}
	sctx, cancel := stepContext(ctx)
	defer cancel()
	sendIdx := ((have-k)%n + n) % n
	recvIdx := ((have-k-1)%n + n) % n
	// The last step's frames are not needed again; forwarding also
	// requires the release contract (DecodeReduceInto set) so relayed
	// buffers provably carry no aliases into decoded values.
	keep := k < n-2 && rc.releasable
	next, err = rc.transferGather(sctx, span, all, rc.ch*n+sendIdx, rc.ch*n+recvIdx, fwd, keep, k%2)
	if err != nil {
		return nil, fmt.Errorf("collective: allgather rank %d ch %d step %d: %w", r, rc.ch, k, err)
	}
	return next, nil
}

// RingAllReduce is reduce-scatter followed by allgather: every rank
// ends with the fully reduced P×N segments. This is the
// bandwidth-optimal allreduce Sparker's interface enables (listed as an
// enabled algorithm, §7 "fast reduction algorithms").
func RingAllReduce[V any](ctx context.Context, e *comm.Endpoint, segs []V, parallelism int, ops Ops[V]) ([]V, error) {
	owned, err := RingReduceScatter(ctx, e, segs, parallelism, ops)
	if err != nil {
		return nil, err
	}
	return RingAllGather(ctx, e, owned, parallelism, ops)
}
