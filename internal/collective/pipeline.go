package collective

// Pipelined double-buffered ring transfers.
//
// The PR 1–3 ring step serialized its three phases: encode the whole
// outgoing segment, wait for the whole incoming frame, then fused
// decode-reduce — so the wire idled while the CPU reduced and vice
// versa. This file streams each segment as a train of fixed-size chunk
// frames instead: while chunk i is in flight to the successor, chunk
// i−1 from the predecessor is being decode-reduced (on several cores
// for large chunks) and chunk i+1 is being encoded into a second
// pooled buffer. Step latency approaches max(comm, compute) instead of
// their sum.
//
// Wire format. A chunked frame sets bit 30 (chunkFlag) of the epoch
// word and carries a 20-byte chunk header after the epoch/span words:
//
//	word0:  epoch(30 bits) | chunkFlag(1<<30) | spanFlag(1<<31)
//	[8B]    sender step-span ID (traced frames only)
//	[20B]   chunk index · chunk count · element offset · element
//	        count · segment element count (all uint32)
//	[...]   payload: elemCnt fixed-stride element words, no per-chunk
//	        length prefix (counts ride in the header)
//
// Untraced single-frame steps keep the exact PR 2 byte format, and
// traced ones the PR 3 format: chunking is a per-frame, per-sender
// extension. A pre-chunking receiver that sees a chunked frame reads
// bit 30 as part of the epoch, fails the epoch match and surfaces a
// "superseded" error — loud, never a silent mis-reduce. Receivers
// dispatch on the frame's own flags, so a chunking rank interoperates
// with a non-chunking one, and ranks given different explicit chunk
// sizes with each other.
//
// The chunk plan is static: a function of the segment's element count
// and the chunk size in force (defaultChunkBytes, or an explicit
// WithChunkBytes) and of nothing else, so two runs over the same data
// put the same frames on the wire. Each chunk's *form* is chosen from
// its data: dense as above, or zero-suppressed (packed.go) when that is
// at most half the bytes.
//
// Ownership follows the PR 1 contract: every chunk frame is a pooled
// draw sent through the recycling SendToAsync path, at most two in
// flight per channel (the "double buffer"), retired opportunistically
// with ReapSend between receives. Under -race each frame is tagged
// with its owning channel and chunk index so a pool-poisoning panic
// names the violator.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sparker/internal/comm"
	"sparker/internal/linalg"
	"sparker/internal/trace"
)

const (
	// defaultChunkBytes is the chunk payload size without an explicit
	// WithChunkBytes. Measured on TCP loopback at 7.6MB segments (the
	// sweep's acceptance point), ~512 KiB beats both 256 KiB and 1 MiB
	// trains.
	defaultChunkBytes = 512 << 10
	// parReduceGrainBytes is the minimum payload per extra reduce
	// worker: sharding costs two channel hops per worker, only worth it
	// when each core gets at least this much to add.
	parReduceGrainBytes = 64 << 10
)

// chunkBytesKey carries an explicit chunk-size choice through a context.
type chunkBytesKey struct{}

// WithChunkBytes fixes the pipelined chunk payload size for collectives
// run under ctx: n > 0 uses exactly n bytes per chunk, n < 0 disables
// chunking (restoring the single-frame step), and n == 0 means
// defaultChunkBytes.
func WithChunkBytes(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, chunkBytesKey{}, n)
}

// ChunkBytesFrom reports the chunk size carried by ctx, or 0 (default).
func ChunkBytesFrom(ctx context.Context) int {
	n, _ := ctx.Value(chunkBytesKey{}).(int)
	return n
}

// coresKey carries the executor's core budget through a context.
type coresKey struct{}

// WithCores tells collectives run under ctx how many cores they may
// use for sharded chunk reduction (the executor's core budget, plumbed
// by core.Aggregate from the cluster config). c <= 1 keeps the reduce
// single-threaded.
func WithCores(ctx context.Context, c int) context.Context {
	return context.WithValue(ctx, coresKey{}, c)
}

// CoresFrom reports the core budget carried by ctx, or 1.
func CoresFrom(ctx context.Context) int {
	c, _ := ctx.Value(coresKey{}).(int)
	if c < 1 {
		return 1
	}
	return c
}

// resolveChunkBytes picks the chunk payload size for one collective:
// the explicit context choice, else defaultChunkBytes. Returns 0 when
// chunking is disabled.
func resolveChunkBytes(ctx context.Context) int {
	switch v := ChunkBytesFrom(ctx); {
	case v < 0:
		return 0
	case v > 0:
		return v
	}
	return defaultChunkBytes
}

// chunkCapable reports whether ops supplies the full chunk fast path.
func chunkCapable[V any](ops Ops[V]) bool {
	return ops.Elems != nil && ops.ChunkEncodedSize != nil &&
		ops.EncodeChunkTo != nil && ops.DecodeReduceChunkInto != nil &&
		ops.MakeSegment != nil && ops.DecodeChunkInto != nil
}

// ChunkStride returns the chunk payload bytes per element when ops
// supplies the full chunk fast path with a linear encoding, else 0. A
// positive stride means any element range of a segment has a raw wire
// form of stride × elements bytes (EncodeChunkTo) that decodes in place
// at any element offset of a MakeSegment'ed segment (DecodeChunkInto) —
// what the pipelined ring cuts its trains from, and what lets a gather
// assemble segments into one vector without intermediate values.
func (ops Ops[V]) ChunkStride() int {
	if !chunkCapable(ops) {
		return 0
	}
	stride := ops.ChunkEncodedSize(1)
	if stride <= 0 || ops.ChunkEncodedSize(2) != 2*stride {
		// A non-linear chunk encoding cannot be resegmented by byte
		// ranges.
		return 0
	}
	return stride
}

// frame is one parsed incoming ring frame: a whole-segment legacy frame
// (chunked=false) or one chunk of a pipelined train.
type frame struct {
	payload []byte
	wire    []byte // full pooled buffer payload aliases; receiver releases or forwards
	span    uint64 // sender step-span ID, 0 when untraced
	chunked bool
	codec   Codec // wire codec of the payload (top byte of the meta index word)
	idx     int   // chunk index within the train
	total   int   // chunks in the train
	elemOff int   // first element this chunk covers
	elemCnt int   // elements in this chunk
	elemAll int   // elements in the whole segment
}

// fwdFrame is a received allgather frame retained for cut-through
// forwarding on the next step: the relay rewrites the header in place
// and sends the payload bytes untouched.
type fwdFrame struct {
	wire       []byte
	payloadOff int
	chunked    bool
	codec      Codec
	idx        int
	total      int
	elemOff    int
	elemCnt    int
	elemAll    int
}

// ringChan is the per-channel transfer engine one collective goroutine
// drives: it owns the two-deep send window (the double buffer), the
// chunk plan, and the step-scoped receive state. One per channel
// goroutine, living on its stack, so the per-step and per-chunk paths
// add no heap allocations over the PR 1 baseline.
type ringChan[V any] struct {
	e          *comm.Endpoint
	ops        Ops[V]
	ch         int
	epoch      uint32
	releasable bool
	tel        telemetry
	cores      int

	chunkBytes int // target chunk payload bytes; 0 = chunking off
	stride     int // payload bytes per element (0 when ops lack chunk support)

	// Wire-codec state (DESIGN.md §13). comp is the resolved outgoing
	// codec (CodecNone keeps the bitwise-exact dense frames); floats is
	// the ops' float view, set whenever the ops can decode compressed
	// frames — a dense-sending rank still decodes a compressing peer.
	comp    Compression
	floats  func(V, int, int) []float64
	packs   bool      // ops supply the packed chunk form (decode always; encode unless comp wins)
	efRes   []float64 // this step's outgoing-segment residual (nil = EF off)
	encBuf  []float64 // error-feedback encode scratch, reused across chunks
	selBuf  []float64 // top-k selection scratch, reused across chunks
	inCodec Codec     // codec fixed by the current incoming train's first frame

	next   int             // successor rank, cached
	done   chan error      // send completions; capacity 2 covers the window
	sctx   context.Context // current step context
	sent   int             // frames enqueued this step
	reaped int             // send completions consumed this step
	hint   int             // last legacy frame size, for pool sizing

	// fwdBufs ping-pong the allgather forward list across steps so the
	// steady-state relay appends into recycled backing arrays.
	fwdBufs [2][]fwdFrame

	// Step telemetry accumulators (meaningful only when tel.on).
	stepBytes int64
	stepRaw   int64 // dense byte equivalent of the step's sends
	lastRaw   int64 // dense equivalent of the frame just encoded (codec and packed frames only)
	packedOut int64 // packed chunk frames sent this step
	reduceNS  int64
	overlapNS int64
	peerSpan  uint64
}

// init prepares the transfer engine for one channel. chunkBytes and
// comp come from resolveChunkBytes/resolveCompression, evaluated once
// per collective.
func (rc *ringChan[V]) init(e *comm.Endpoint, ops Ops[V], ch int, epoch uint32, tel telemetry, chunkBytes, cores int, comp Compression) {
	rc.e = e
	rc.ops = ops
	rc.ch = ch
	rc.epoch = epoch
	rc.releasable = ops.DecodeReduceInto != nil
	rc.tel = tel
	rc.cores = cores
	rc.next = e.Next()
	// Without a fixed stride the channel falls back to whole-segment
	// frames.
	if rc.stride = ops.ChunkStride(); rc.stride > 0 {
		rc.chunkBytes = chunkBytes
	}
	rc.packs = ops.CanPack()
	if rc.stride == 8 {
		// Compressed frames are always float64-element chunks; the view
		// is kept even when this rank sends dense, so it can decode a
		// compressing peer.
		rc.floats = ops.Floats
	}
	if comp.enabled() && rc.floats != nil {
		rc.comp = comp
		if rc.chunkBytes <= 0 {
			// Compression rides the chunk train: even when chunking was
			// disabled, codec frames need the chunk meta for the codec
			// byte, so single-chunk trains at the default size carry them.
			rc.chunkBytes = defaultChunkBytes
		}
	}
	// One completion channel serves both in-flight sends: completions
	// are only ever counted (each one frees a window slot), never
	// matched to a specific frame, so a single capacity-2 buffer
	// replaces per-slot channels — same allocation count as the PR 1
	// single-frame loop.
	rc.done = make(chan error, 2)
}

// beginStep resets the per-step window state.
func (rc *ringChan[V]) beginStep(sctx context.Context) {
	rc.sctx = sctx
	rc.sent, rc.reaped = 0, 0
	rc.stepBytes, rc.reduceNS, rc.overlapNS, rc.peerSpan = 0, 0, 0, 0
	rc.stepRaw, rc.lastRaw, rc.packedOut = 0, 0, 0
}

// outChunks plans the outgoing train for a segment of elems elements:
// 1 means a single legacy frame (chunking off, unchunkable ops, or a
// segment too small to split).
func (rc *ringChan[V]) outChunks(elems int) int {
	if rc.chunkBytes <= 0 || rc.stride <= 0 || elems <= 0 {
		return 1
	}
	per := rc.chunkElems()
	c := (elems + per - 1) / per
	if c < 2 {
		return 1
	}
	return c
}

// chunkElems is the element capacity of one chunk. With a codec active
// the chunk-bytes target counts *post-compression* wire bytes, so the
// element capacity grows by the codec's (data-independent) compression
// factor. Packing does not enter: its factor is only known per chunk,
// after the plan is cut.
func (rc *ringChan[V]) chunkElems() int {
	var per int
	if rc.comp.enabled() {
		per = int(float64(rc.chunkBytes) / rc.comp.wireBytesPerElem())
	} else {
		per = rc.chunkBytes / rc.stride
	}
	if per < 1 {
		per = 1
	}
	return per
}

// inflight is the number of frames enqueued but not yet retired.
func (rc *ringChan[V]) inflight() int { return rc.sent - rc.reaped }

// waitOldest blocks for the oldest outstanding send, bounded by the
// step context.
func (rc *ringChan[V]) waitOldest() error {
	err := rc.e.WaitSend(rc.sctx, rc.next, rc.done)
	rc.reaped++
	return err
}

// reapSends retires finished sends without blocking, so the two-deep
// window reopens as fast as the wire drains.
func (rc *ringChan[V]) reapSends() error {
	for rc.reaped < rc.sent {
		ok, err := rc.e.ReapSend(rc.next, rc.done)
		if !ok {
			return nil
		}
		rc.reaped++
		if err != nil {
			return err
		}
	}
	return nil
}

// abortSends drains the window on an error path, bounded by the step
// context; the dones are not reused afterwards (the collective fails).
func (rc *ringChan[V]) abortSends() {
	for rc.reaped < rc.sent {
		drainSend(rc.sctx, rc.done)
		rc.reaped++
	}
}

// sendFrame enqueues one pooled wire frame on the double-buffered
// window. The caller has already ensured inflight() < 2. Codec encoders
// deposit the frame's pre-compression byte equivalent in lastRaw; dense
// frames are their own raw size.
func (rc *ringChan[V]) sendFrame(wire []byte) {
	rc.stepBytes += int64(len(wire))
	if rc.lastRaw != 0 {
		rc.stepRaw += rc.lastRaw
		rc.lastRaw = 0
	} else {
		rc.stepRaw += int64(len(wire))
	}
	rc.e.SendToAsync(rc.next, rc.ch, wire, rc.done)
	rc.sent++
}

// chunkHeaderSize is where a chunk frame's payload starts: after the
// frame header and the 20-byte chunk meta.
func chunkHeaderSize(spanID uint64) int { return frameHeaderSize(spanID) + chunkMetaSize }

// stampChunk fills in the header of an encoded chunk frame (epoch word,
// span ID, chunk meta with the payload's codec byte) and records it for
// the -race pool guard and the chunk-bytes histogram.
func (rc *ringChan[V]) stampChunk(wire []byte, spanID uint64, idx, total, elemOff, elemCnt, elemAll int, codec Codec) {
	word := rc.epoch&epochMask | chunkFlag
	if spanID != 0 {
		word |= spanFlag
		putUint64(wire[epochHeaderSize:], spanID)
	}
	putUint32(wire, word)
	putChunkMeta(wire[frameHeaderSize(spanID):], idx, total, elemOff, elemCnt, elemAll, codec)
	if comm.RaceGuard {
		if codec != CodecNone {
			comm.TagWire(wire, fmt.Sprintf("ring ch %d codec %s chunk %d/%d", rc.ch, codec, idx, total))
		} else {
			comm.TagWire(wire, fmt.Sprintf("ring ch %d chunk %d/%d", rc.ch, idx, total))
		}
	}
	if rc.tel.on {
		rc.tel.chunkBytes.Observe(int64(len(wire)))
	}
}

// encodeChunkFrame builds chunk idx of a total-chunk train covering
// elements [elemOff, elemOff+elemCnt) of v, as an exactly-sized pooled
// draw: through the selected lossy codec if there is one, else packed
// when the chunk's own data makes that at most half the bytes, else
// dense.
func (rc *ringChan[V]) encodeChunkFrame(spanID uint64, v V, idx, total, elemOff, elemCnt, elemAll int) []byte {
	if rc.comp.enabled() {
		return rc.encodeCodecFrame(spanID, v, idx, total, elemOff, elemCnt, elemAll)
	}
	if wire := rc.encodePackedFrame(spanID, v, idx, total, elemOff, elemCnt, elemAll); wire != nil {
		return wire
	}
	hs := chunkHeaderSize(spanID)
	buf := comm.GetBuffer(hs + rc.stride*elemCnt)
	wire := rc.ops.EncodeChunkTo(buf[:hs], v, elemOff, elemCnt)
	releaseIfAbandoned(buf, wire)
	rc.stampChunk(wire, spanID, idx, total, elemOff, elemCnt, elemAll, CodecNone)
	return wire
}

// encodePackedFrame is the data-driven choice: one counting pass over
// the chunk (Packed.ChunkSize), and when packing wins, the packed frame
// as an exactly-sized pooled draw. It returns nil when the chunk stays
// dense — or when the ops cannot pack, or a lossy codec was chosen,
// which wins over packing.
func (rc *ringChan[V]) encodePackedFrame(spanID uint64, v V, idx, total, elemOff, elemCnt, elemAll int) []byte {
	if !rc.packs || rc.comp.enabled() {
		return nil
	}
	size := rc.ops.Packed.ChunkSize(v, elemOff, elemCnt)
	if size <= 0 {
		return nil
	}
	hs := chunkHeaderSize(spanID)
	buf := comm.GetBuffer(hs + size)
	wire := rc.ops.Packed.EncodeChunkTo(buf[:hs], v, elemOff, elemCnt)
	releaseIfAbandoned(buf, wire)
	rc.stampChunk(wire, spanID, idx, total, elemOff, elemCnt, elemAll, codecPacked)
	rc.lastRaw = int64(hs + rc.stride*elemCnt)
	rc.packedOut++
	return wire
}

// outPlan cuts the outgoing train for segment v: the number of frames,
// v's element count, and the elements per chunk. One frame means a
// single whole-segment step — chunking off, unchunkable ops, or a
// segment that fits one chunk.
func (rc *ringChan[V]) outPlan(v V) (total, elems, per int) {
	if rc.stride <= 0 {
		return 1, 0, 0
	}
	elems = rc.ops.Elems(v)
	return rc.outChunks(elems), elems, rc.chunkElems()
}

// encodeNext encodes frame rc.sent of the train outPlan cut for v. A
// one-frame step goes out as the legacy whole-segment frame unless its
// form needs the chunk header's codec byte: lossy codecs always, and a
// segment that packs — both travel as one-chunk trains.
func (rc *ringChan[V]) encodeNext(spanID uint64, v V, total, elems, per int) []byte {
	if total > 1 || rc.comp.enabled() {
		lo := rc.sent * per
		hi := lo + per
		if hi > elems {
			hi = elems
		}
		return rc.encodeChunkFrame(spanID, v, rc.sent, total, lo, hi-lo, elems)
	}
	if wire := rc.encodePackedFrame(spanID, v, 0, 1, 0, elems, elems); wire != nil {
		return wire
	}
	buf := comm.GetBuffer(sizeHint(rc.ops, rc.hint, v) + frameHeaderSize(spanID))
	wire := encodeFrame(rc.ops, rc.epoch, spanID, buf, v)
	rc.hint = len(wire)
	return wire
}

// putChunkMeta serializes the 20-byte chunk header. The codec id rides
// in the top byte of the index word: codec 0 leaves the word — and the
// whole header — byte-identical to the pre-codec format, while a
// pre-codec receiver reads a compressed frame's index as idx+codec·2²⁴,
// fails the train check and errors loudly.
func putChunkMeta(dst []byte, idx, total, elemOff, elemCnt, elemAll int, codec Codec) {
	putUint32(dst, uint32(idx)&chunkIdxMask|uint32(codec)<<24)
	putUint32(dst[4:], uint32(total))
	putUint32(dst[8:], uint32(elemOff))
	putUint32(dst[12:], uint32(elemCnt))
	putUint32(dst[16:], uint32(elemAll))
}

// recvAny receives the next frame for this collective's epoch,
// dispatching on the frame's own flags so chunked and legacy senders
// interoperate. Stale-epoch residue is dropped and the receive retried;
// a newer epoch means this collective was superseded.
func (rc *ringChan[V]) recvAny() (frame, error) {
	want := rc.epoch & epochMask
	for {
		in, err := rc.e.RecvPrevCtx(rc.sctx, rc.ch)
		if err != nil {
			return frame{}, err
		}
		if len(in) < epochHeaderSize {
			return frame{}, fmt.Errorf("collective: frame shorter than epoch header (%d bytes)", len(in))
		}
		word := uint32At(in, 0)
		got := word & epochMask
		hs := epochHeaderSize
		var fr frame
		if word&spanFlag != 0 {
			if len(in) < hs+spanIDSize {
				return frame{}, fmt.Errorf("collective: traced frame shorter than span header (%d bytes)", len(in))
			}
			fr.span = uint64At(in, hs)
			hs += spanIDSize
		}
		if word&chunkFlag != 0 {
			if len(in) < hs+chunkMetaSize {
				return frame{}, fmt.Errorf("collective: chunked frame shorter than chunk header (%d bytes)", len(in))
			}
			fr.chunked = true
			iw := uint32At(in, hs)
			fr.codec = Codec(iw >> 24)
			fr.idx = int(iw & chunkIdxMask)
			fr.total = int(uint32At(in, hs+4))
			fr.elemOff = int(uint32At(in, hs+8))
			fr.elemCnt = int(uint32At(in, hs+12))
			fr.elemAll = int(uint32At(in, hs+16))
			hs += chunkMetaSize
		}
		if got == want {
			fr.payload = in[hs:]
			fr.wire = in
			return fr, nil
		}
		if rc.releasable {
			comm.Release(in)
		}
		if epochNewer(got, want) {
			return frame{}, fmt.Errorf("collective: epoch %d superseded by in-flight epoch %d", want, got)
		}
	}
}

// checkTrain validates one incoming frame against the train state (got
// chunks received so far, need chunks expected or -1 before the first
// frame) so a corrupt or misrouted chunk fails the step instead of
// mis-reducing. The first frame of a train fixes its codec; a codec
// change mid-train fails exactly like a train-length change — except
// between the two lossless forms, which the sender picks chunk by chunk
// from the data, so one train may mix dense and packed chunks.
func (rc *ringChan[V]) checkTrain(fr frame, got, need int) error {
	switch {
	case !fr.chunked && got != 0:
		return fmt.Errorf("collective: whole-segment frame arrived inside a chunk train (%d/%d received)", got, need)
	case !fr.chunked:
		return nil
	case rc.stride <= 0:
		return fmt.Errorf("collective: peer sent a chunked frame but ops have no chunk decoder")
	case fr.codec > codecPacked:
		return fmt.Errorf("collective: unknown codec %d in chunk header", uint8(fr.codec))
	case fr.codec == codecPacked && !rc.packs:
		return fmt.Errorf("collective: peer sent a packed chunk but ops have no packed decoder")
	case !fr.codec.lossless() && rc.floats == nil:
		return fmt.Errorf("collective: peer sent a %s-compressed chunk but ops have no float view", fr.codec)
	case fr.total < 1 || fr.idx < 0 || fr.elemCnt < 0 || fr.elemOff < 0 || fr.elemAll < 0:
		return fmt.Errorf("collective: corrupt chunk header (idx %d total %d off %d cnt %d all %d)", fr.idx, fr.total, fr.elemOff, fr.elemCnt, fr.elemAll)
	case fr.idx != got:
		return fmt.Errorf("collective: chunk %d arrived, want chunk %d of %d", fr.idx, got, fr.total)
	case got > 0 && fr.codec != rc.inCodec && !(fr.codec.lossless() && rc.inCodec.lossless()):
		return fmt.Errorf("collective: mixed-codec chunk train (%s after %s at chunk %d)", fr.codec, rc.inCodec, fr.idx)
	case need >= 0 && fr.total != need:
		return fmt.Errorf("collective: chunk train length changed mid-step (%d vs %d)", fr.total, need)
	case fr.elemOff+fr.elemCnt > fr.elemAll:
		return fmt.Errorf("collective: chunk [%d,%d) exceeds its declared segment of %d elems", fr.elemOff, fr.elemOff+fr.elemCnt, fr.elemAll)
	}
	if err := checkChunkPayload(fr, rc.stride); err != nil {
		return err
	}
	if got == 0 {
		rc.inCodec = fr.codec
	}
	return nil
}

// checkChunkPayload validates a chunk's payload length against its
// codec's wire format (top-k and packed lengths are nnz-dependent: the
// fixed part is checked here, the rest at decode).
func checkChunkPayload(fr frame, stride int) error {
	switch fr.codec {
	case CodecNone:
		if len(fr.payload) != fr.elemCnt*stride {
			return fmt.Errorf("collective: chunk payload %d bytes, want %d (%d elems × stride %d)", len(fr.payload), fr.elemCnt*stride, fr.elemCnt, stride)
		}
	case CodecFP16:
		if len(fr.payload) != 8+2*fr.elemCnt {
			return fmt.Errorf("collective: fp16 chunk payload %d bytes, want %d", len(fr.payload), 8+2*fr.elemCnt)
		}
	case CodecInt8:
		if len(fr.payload) != 8+fr.elemCnt {
			return fmt.Errorf("collective: int8 chunk payload %d bytes, want %d", len(fr.payload), 8+fr.elemCnt)
		}
	case CodecTopK:
		if len(fr.payload) < 4 {
			return fmt.Errorf("collective: top-k chunk payload %d bytes, shorter than its nnz word", len(fr.payload))
		}
	case codecPacked:
		if len(fr.payload) < 8*PackedWords(fr.elemCnt) {
			return fmt.Errorf("%w: payload %d bytes, shorter than the %d-word bitmap of %d elems", ErrMalformedChunk, len(fr.payload), PackedWords(fr.elemCnt), fr.elemCnt)
		}
	}
	return nil
}

// releaseFrame returns one received frame's buffer to the pool when the
// ops' contracts prove it unretained: always for chunk payloads (the
// chunk decoders are defined non-retaining), for legacy frames only
// under the DecodeReduceInto marker.
func (rc *ringChan[V]) releaseFrame(fr frame) {
	if rc.releasable || fr.chunked {
		comm.Release(fr.wire)
	}
}

// parWorkers picks the shard count for reducing an elemCnt-element
// chunk: bounded by the executor's core budget, with at least
// parReduceGrainBytes of payload per shard.
func (rc *ringChan[V]) parWorkers(elemCnt int) int {
	if rc.cores <= 1 || rc.stride <= 0 {
		return 1
	}
	w := elemCnt * rc.stride / parReduceGrainBytes
	if w > rc.cores {
		w = rc.cores
	}
	if w < 1 {
		w = 1
	}
	return w
}

// reduceChunk fuses decode and reduce for one chunk, sharding across
// the worker pool when the chunk is large enough. Shards are disjoint
// contiguous element ranges running the same sequential kernel, so the
// result is bitwise identical to the single-threaded fused pass.
func (rc *ringChan[V]) reduceChunk(acc V, fr frame) error {
	if fr.elemOff+fr.elemCnt > rc.ops.Elems(acc) {
		return fmt.Errorf("collective: chunk [%d,%d) exceeds local segment of %d elems",
			fr.elemOff, fr.elemOff+fr.elemCnt, rc.ops.Elems(acc))
	}
	switch {
	case fr.codec == codecPacked:
		// Not sharded: the walk costs ∝ non-zeros, at most half a dense
		// chunk's adds, and a shard would need the popcount of everything
		// before it to find its values.
		return rc.ops.Packed.DecodeReduceChunkInto(acc, fr.elemOff, fr.elemCnt, fr.payload)
	case fr.codec != CodecNone:
		return rc.reduceCodecChunk(acc, fr)
	}
	w := rc.parWorkers(fr.elemCnt)
	if w <= 1 {
		return rc.ops.DecodeReduceChunkInto(acc, fr.elemOff, fr.payload)
	}
	// Locals only in the shard closure: capturing rc would make every
	// ringChan escape to the heap and break the PR 1 allocation budget.
	reduce := rc.ops.DecodeReduceChunkInto
	stride, elemOff, payload := rc.stride, fr.elemOff, fr.payload
	var (
		mu       sync.Mutex
		firstErr error
	)
	linalg.ParallelFor(fr.elemCnt, w, func(lo, hi int) {
		err := reduce(acc, elemOff+lo, payload[lo*stride:hi*stride])
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// observeReduce folds one chunk's decode/reduce duration into the step
// accumulators. active reports whether wire work (sends in flight or
// receives still expected) overlapped the compute — the overlap_ns
// share of reduce_ns on the ring-step span.
func (rc *ringChan[V]) observeReduce(d time.Duration, active bool) {
	ns := d.Nanoseconds()
	rc.reduceNS += ns
	if active {
		rc.overlapNS += ns
	}
	rc.tel.chunkNS.Observe(ns)
}

// finishStep records the step's telemetry onto its span and histograms.
// Every step over float64 elements — the ones a codec or the packed form
// can shrink — also records its dense byte equivalent (the raw-bytes
// histogram and span attribute) whether or not anything shrank, so
// raw ÷ wire is the achieved reduction and raw alone the volume the
// algorithm moves; compressing steps add the codec tag.
func (rc *ringChan[V]) finishStep(span *trace.ActiveSpan, chunks int) {
	if !rc.tel.on {
		return
	}
	rc.tel.stepBytes.Observe(rc.stepBytes)
	if rc.floats != nil {
		rc.tel.stepRaw.Observe(rc.stepRaw)
	}
	if span == nil {
		return
	}
	span.SetInt("bytes", rc.stepBytes)
	span.SetHex("peer_span", rc.peerSpan)
	if rc.floats != nil {
		span.SetInt("raw_bytes", rc.stepRaw)
		span.SetInt("packed_chunks", rc.packedOut)
	}
	if rc.comp.enabled() {
		span.SetAttr("codec", rc.comp.Codec.String())
	}
	if chunks > 1 {
		span.SetInt("chunks", int64(chunks))
		span.SetInt("reduce_ns", rc.reduceNS)
		span.SetInt("overlap_ns", rc.overlapNS)
	}
}

// transferReduce runs one reduce-scatter step on this channel: stream
// segment out to the successor while receiving the predecessor's
// segment and reducing it into acc. Returns the updated accumulator.
//
// The schedule keeps the send window full first (two chunks in flight),
// then alternates receives — each received chunk decode-reduces while
// the window drains on the wire — and retires completions
// opportunistically, so encode, wire and reduce overlap within the step
// instead of running back to back.
func (rc *ringChan[V]) transferReduce(sctx context.Context, span *trace.ActiveSpan, out V, acc V, outSeg int) (V, error) {
	spanID := span.ID()
	outTotal, elems, per := rc.outPlan(out)
	rc.beginStep(sctx)
	rc.efRes = nil
	if rc.comp.efOn() {
		rc.efRes = rc.comp.State.residual(efKey(rc.ch, outSeg), elems)
	}

	inNeed, inGot := -1, 0
	for {
		// Keep the double buffer full: encode and launch the next chunk
		// whenever fewer than two frames are in flight.
		if rc.sent < outTotal && rc.inflight() < 2 {
			rc.sendFrame(rc.encodeNext(spanID, out, outTotal, elems, per))
			continue
		}
		// Receive while the window is full (or everything is sent): the
		// reduce below runs while both in-flight chunks traverse the
		// wire — this interleaving is the pipeline.
		if inNeed < 0 || inGot < inNeed {
			fr, err := rc.recvAny()
			if err != nil {
				rc.abortSends()
				return acc, err
			}
			if err := rc.checkTrain(fr, inGot, inNeed); err != nil {
				rc.releaseFrame(fr)
				rc.abortSends()
				return acc, err
			}
			if fr.span != 0 {
				rc.peerSpan = fr.span
			}
			var start time.Time
			if rc.tel.on {
				start = time.Now()
			}
			var rerr error
			var canRelease bool
			if fr.chunked {
				inNeed = fr.total
				inGot++
				rerr = rc.reduceChunk(acc, fr)
				canRelease = true
			} else {
				inNeed, inGot = 1, 1
				acc, canRelease, rerr = decodeReduce(rc.ops, acc, fr.payload)
			}
			if rc.tel.on {
				active := rc.inflight() > 0 || rc.sent < outTotal || inGot < inNeed
				rc.observeReduce(time.Since(start), active)
			}
			if canRelease {
				comm.Release(fr.wire)
			}
			if rerr != nil {
				rc.abortSends()
				return acc, rerr
			}
			if err := rc.reapSends(); err != nil {
				rc.abortSends()
				return acc, err
			}
			continue
		}
		// Everything received; drain the remaining sends.
		if rc.reaped < rc.sent {
			if err := rc.waitOldest(); err != nil {
				rc.abortSends()
				return acc, err
			}
			continue
		}
		break
	}
	rc.finishStep(span, outTotal)
	return acc, nil
}

// forwardFrame rewrites a kept frame's header for relaying: same epoch,
// our step span, same chunk metadata. The payload bytes are not touched
// unless the header length changed (traced↔untraced hop), in which case
// they shift within the buffer — still no decode and no re-encode.
func (rc *ringChan[V]) forwardFrame(f fwdFrame, spanID uint64) []byte {
	hs := epochHeaderSize
	if spanID != 0 {
		hs += spanIDSize
	}
	if f.chunked {
		hs += chunkMetaSize
	}
	wire := f.wire
	payloadLen := len(wire) - f.payloadOff
	switch {
	case hs == f.payloadOff:
		// Same header shape: rewrite in place.
	case hs < f.payloadOff:
		copy(wire[hs:], wire[f.payloadOff:])
		wire = wire[:hs+payloadLen]
	case hs+payloadLen <= cap(wire):
		// copy is memmove-safe for the overlapping forward shift.
		wire = wire[:hs+payloadLen]
		copy(wire[hs:], wire[f.payloadOff:f.payloadOff+payloadLen])
	default:
		grown := comm.GetBuffer(hs + payloadLen)[:hs+payloadLen]
		copy(grown[hs:], wire[f.payloadOff:])
		comm.Release(wire)
		wire = grown
	}
	word := rc.epoch & epochMask
	metaOff := epochHeaderSize
	if spanID != 0 {
		word |= spanFlag
		putUint64(wire[epochHeaderSize:], spanID)
		metaOff += spanIDSize
	}
	if f.chunked {
		word |= chunkFlag
		putChunkMeta(wire[metaOff:], f.idx, f.total, f.elemOff, f.elemCnt, f.elemAll, f.codec)
	}
	putUint32(wire, word)
	if comm.RaceGuard {
		rc.tagForward(wire, f)
	}
	if rc.tel.on && f.chunked {
		rc.tel.chunkBytes.Observe(int64(len(wire)))
	}
	if f.codec != CodecNone {
		// Relayed compressed and packed frames keep their payload
		// untouched; account the dense equivalent for the raw-bytes
		// telemetry.
		rc.lastRaw = int64(hs + rc.stride*f.elemCnt)
		if f.codec == codecPacked {
			rc.packedOut++
		}
	}
	return wire
}

// tagForward labels a relayed frame for the -race pool guard, naming
// the codec when the relayed payload is compressed.
func (rc *ringChan[V]) tagForward(wire []byte, f fwdFrame) {
	if f.codec != CodecNone {
		comm.TagWire(wire, fmt.Sprintf("ring ch %d codec %s fwd chunk %d/%d", rc.ch, f.codec, f.idx, f.total))
		return
	}
	comm.TagWire(wire, fmt.Sprintf("ring ch %d fwd chunk %d/%d", rc.ch, f.idx, f.total))
}

// gatherAbort cleans up a failed allgather step: drain the send window
// and return every frame this rank still owns (unsent forwards and kept
// receives) to the pool.
func (rc *ringChan[V]) gatherAbort(fwd, kept []fwdFrame) {
	rc.abortSends()
	if !rc.releasable {
		return
	}
	if rc.sent < len(fwd) {
		for _, f := range fwd[rc.sent:] {
			comm.Release(f.wire)
		}
	}
	for _, f := range kept {
		comm.Release(f.wire)
	}
}

// transferGather runs one allgather step on this channel: relay the
// frames gathered last step (fwd; step 0 encodes all[sendSlot] instead)
// while assembling the predecessor's frames into all[recvSlot]. When
// keep is set the received frames are retained and returned for the
// next step's relay — cut-through forwarding, re-framed header only —
// otherwise they are released. parity selects the recycled backing
// array for the returned list.
func (rc *ringChan[V]) transferGather(sctx context.Context, span *trace.ActiveSpan, all []V, sendSlot, recvSlot int, fwd []fwdFrame, keep bool, parity int) ([]fwdFrame, error) {
	spanID := span.ID()
	outTotal, elems, per := len(fwd), 0, 0
	if len(fwd) == 0 {
		outTotal, elems, per = rc.outPlan(all[sendSlot])
	}
	rc.beginStep(sctx)
	// Allgather compresses its step-0 frames without error feedback: the
	// values are final results, never re-encoded, so there is no later
	// iteration to re-inject the error into.
	rc.efRes = nil

	var kept []fwdFrame
	if keep {
		kept = rc.fwdBufs[parity][:0]
	}
	inNeed, inGot := -1, 0
	for {
		if rc.sent < outTotal && rc.inflight() < 2 {
			if len(fwd) > 0 {
				rc.sendFrame(rc.forwardFrame(fwd[rc.sent], spanID))
			} else {
				rc.sendFrame(rc.encodeNext(spanID, all[sendSlot], outTotal, elems, per))
			}
			continue
		}
		if inNeed < 0 || inGot < inNeed {
			fr, err := rc.recvAny()
			if err != nil {
				rc.gatherAbort(fwd, kept)
				return nil, err
			}
			if err := rc.checkTrain(fr, inGot, inNeed); err != nil {
				rc.releaseFrame(fr)
				rc.gatherAbort(fwd, kept)
				return nil, err
			}
			if fr.span != 0 {
				rc.peerSpan = fr.span
			}
			var start time.Time
			if rc.tel.on {
				start = time.Now()
			}
			var derr error
			if fr.chunked {
				if inGot == 0 {
					all[recvSlot] = rc.ops.MakeSegment(fr.elemAll)
				}
				inNeed = fr.total
				inGot++
				if fr.elemOff+fr.elemCnt > rc.ops.Elems(all[recvSlot]) {
					derr = fmt.Errorf("collective: chunk [%d,%d) exceeds assembled segment of %d elems",
						fr.elemOff, fr.elemOff+fr.elemCnt, rc.ops.Elems(all[recvSlot]))
				} else if fr.codec == codecPacked {
					derr = rc.ops.Packed.DecodeChunkInto(all[recvSlot], fr.elemOff, fr.elemCnt, fr.payload)
				} else if fr.codec != CodecNone {
					derr = rc.decodeCodecChunkInto(all[recvSlot], fr)
				} else {
					derr = rc.ops.DecodeChunkInto(all[recvSlot], fr.elemOff, fr.payload)
				}
			} else {
				inNeed, inGot = 1, 1
				var v V
				v, derr = rc.ops.Decode(fr.payload)
				if derr == nil {
					all[recvSlot] = v
				}
			}
			if rc.tel.on {
				active := rc.inflight() > 0 || rc.sent < outTotal || inGot < inNeed
				rc.observeReduce(time.Since(start), active)
			}
			if derr != nil {
				rc.releaseFrame(fr)
				rc.gatherAbort(fwd, kept)
				return nil, derr
			}
			if keep {
				kept = append(kept, fwdFrame{
					wire:       fr.wire,
					payloadOff: len(fr.wire) - len(fr.payload),
					chunked:    fr.chunked,
					codec:      fr.codec,
					idx:        fr.idx,
					total:      fr.total,
					elemOff:    fr.elemOff,
					elemCnt:    fr.elemCnt,
					elemAll:    fr.elemAll,
				})
			} else {
				rc.releaseFrame(fr)
			}
			if err := rc.reapSends(); err != nil {
				rc.gatherAbort(fwd, kept)
				return nil, err
			}
			continue
		}
		if rc.reaped < rc.sent {
			if err := rc.waitOldest(); err != nil {
				rc.gatherAbort(fwd, kept)
				return nil, err
			}
			continue
		}
		break
	}
	if keep {
		rc.fwdBufs[parity] = kept // persist growth for the next lap
	}
	rc.finishStep(span, outTotal)
	return kept, nil
}
