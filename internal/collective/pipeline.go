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
//	[20B]   form(8 bits)<<24 | chunk index(24 bits) · chunk count ·
//	        element offset · element count · segment element count
//	        (all uint32)
//	[...]   payload in the chunk's form (no per-chunk length prefix:
//	        counts ride in the header)
//
// A frame without chunkFlag is a whole-segment frame: the ops' own
// Encode output after the epoch/span words — what stride-less ops send,
// and fixed-stride ones for a segment that is a single dense chunk.
// Receivers dispatch on each frame's own flags.
//
// The chunk plan is static: a function of the segment's element count
// and the chunk size in force (defaultChunkBytes, or an explicit
// WithChunkBytes) and of nothing else, so two runs over the same data
// put the same frames on the wire. Each chunk's *form* is chosen from
// its data: dense (elemCnt fixed-stride element words), or
// zero-suppressed (packed.go) when that is at most half the bytes.
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
	"sparker/internal/serde"
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

// RingChannels is how many of p connected ring channels a collective
// over an aggregator of elems elements uses: min(p, ⌈elems × stride ÷
// chunk bytes⌉), and at least one. A channel whose share cannot fill
// one chunk buys no bandwidth and still pays the ring's per-step
// latency, so a few-KB aggregator runs on one channel and an 8 MB one on
// all p (EXPERIMENTS.md "Ring channels from the bytes" has the sweep).
// Every rank derives the same count from the aggregator length the ring
// already requires it to agree on. Ops without a fixed stride, whose
// bytes are unknown before encoding (elems is not read), and
// collectives run with chunking off keep p.
func RingChannels[V any](ctx context.Context, p, elems int, ops Ops[V]) int {
	stride, chunk := ops.ChunkStride(), resolveChunkBytes(ctx)
	if stride <= 0 || chunk <= 0 {
		return p
	}
	return max(1, min(p, (elems*stride+chunk-1)/chunk))
}

// chunkCapable reports whether ops supplies the chunk fast path of a
// reduce-scatter; the allgather also assembles with MakeSegment and
// DecodeChunkInto.
func chunkCapable[V any](ops Ops[V]) bool {
	return ops.Elems != nil && ops.ChunkEncodedSize != nil &&
		ops.EncodeChunkTo != nil && ops.DecodeReduceChunkInto != nil
}

// ChunkStride returns the chunk payload bytes per element when ops
// supply the chunk fast path with a linear encoding, else 0. A positive
// stride means any element range of a segment has a raw wire form of
// stride × elements bytes (EncodeChunkTo) that reduces in place at any
// element offset — what the pipelined ring cuts its trains from — and,
// for ops that gather, decodes into a MakeSegment'ed segment
// (DecodeChunkInto), which lets a gather assemble segments into one
// vector without intermediate values.
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

// chunkForm is the top byte of a chunk header's index word: the layout
// of the chunk's payload. The sender picks it per chunk from the data
// (encodeChunkFrame); nothing selects it. Every other byte value —
// including 1–3, which retired forms once used — fails the step in
// checkTrain.
type chunkForm uint8

const (
	formDense  chunkForm = 0 // elemCnt fixed-stride element words
	formPacked chunkForm = 4 // presence bitmap + the non-zero words (packed.go)

	// chunkIdxMask masks the chunk index out of the header's index word.
	chunkIdxMask = uint32(0xFFFFFF)
	// maxTrainChunks is the longest train whose chunks the index word can
	// number.
	maxTrainChunks = int(chunkIdxMask) + 1
)

// chunkMeta is what a frame's header says about its payload: a whole
// segment (chunked=false, nothing else set) or one chunk of a train.
type chunkMeta struct {
	chunked bool
	form    chunkForm
	idx     int // chunk index within the train
	total   int // chunks in the train
	elemOff int // first element this chunk covers
	elemCnt int // elements in this chunk
	elemAll int // elements in the whole segment
}

// frame is one parsed incoming ring frame.
type frame struct {
	payload []byte
	wire    []byte // full pooled buffer payload aliases; receiver releases or forwards
	epoch   uint32 // masked epoch of the header word
	span    uint64 // sender step-span ID, 0 when untraced
	chunkMeta
}

// fwdFrame is a received allgather frame retained for cut-through
// forwarding on the next step: the relay rewrites the header in place
// and sends the payload bytes untouched.
type fwdFrame struct {
	wire       []byte
	payloadOff int
	chunkMeta
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

	chunkBytes int  // target chunk payload bytes; 0 = chunking off
	stride     int  // payload bytes per element (0 when ops lack chunk support)
	packs      bool // ops supply the packed chunk form
	take       bool // reduce-scatter leaves what it sends +0.0 (packs only)

	// The reduce-scatter channel's private support copy (support.go):
	// nil means scan. supLo is its bit in the shared bitmap; outBit and
	// inBit are this step's send and receive segments' bits in the copy.
	sup           []uint64
	supBuf        *[]uint64
	supLo         int
	outBit, inBit int

	next   int             // successor rank, cached
	done   chan error      // send completions; capacity 2 covers the window
	sctx   context.Context // current step context
	sent   int             // frames enqueued this step
	reaped int             // send completions consumed this step
	hint   int             // last whole-segment frame size, for pool sizing

	// fwdBufs ping-pong the allgather forward list across steps so the
	// steady-state relay appends into recycled backing arrays.
	fwdBufs [2][]fwdFrame

	// Step telemetry accumulators (meaningful only when tel.on).
	stepBytes int64
	stepRaw   int64 // dense byte equivalent of the step's sends
	lastRaw   int64 // dense equivalent of the frame just encoded (packed frames only)
	packedOut int64 // packed chunk frames sent this step
	reduceNS  int64
	overlapNS int64
	peerSpan  uint64
}

// init prepares the transfer engine for one channel. chunkBytes comes
// from resolveChunkBytes, evaluated once per collective.
func (rc *ringChan[V]) init(e *comm.Endpoint, ops Ops[V], ch int, epoch uint32, tel telemetry, chunkBytes, cores int) {
	rc.e = e
	rc.ops = ops
	rc.ch = ch
	rc.epoch = epoch
	rc.releasable = ops.DecodeReduceInto != nil
	rc.tel = tel
	rc.cores = cores
	if any(ops.Packed) == any(bodyPacked) {
		rc.cores = 1 // a chunk merges into a body in one ordered pass
	}
	rc.next = e.Next()
	// Without a fixed stride the channel falls back to whole-segment
	// frames.
	if rc.stride = ops.ChunkStride(); rc.stride > 0 {
		rc.chunkBytes = chunkBytes
	}
	rc.packs = ops.CanPack()
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
// 1 means a single frame (chunking off, unchunkable ops, or a segment
// too small to split).
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

// chunkElems is the element capacity of one chunk, counted in dense
// bytes. Packing does not enter: its factor is only known per chunk,
// after the plan is cut.
func (rc *ringChan[V]) chunkElems() int {
	return max(rc.chunkBytes/rc.stride, 1)
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
// window. The caller has already ensured inflight() < 2. The packed
// encoder deposits the frame's dense byte equivalent in lastRaw; dense
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
// span ID, chunk meta with the payload's form byte) and records it for
// the -race pool guard and the chunk-bytes histogram.
func (rc *ringChan[V]) stampChunk(wire []byte, spanID uint64, idx, total, elemOff, elemCnt, elemAll int, form chunkForm) {
	word := rc.epoch&epochMask | chunkFlag
	if spanID != 0 {
		word |= spanFlag
		putUint64(wire[epochHeaderSize:], spanID)
	}
	putUint32(wire, word)
	putChunkMeta(wire[frameHeaderSize(spanID):], idx, total, elemOff, elemCnt, elemAll, form)
	if comm.RaceGuard {
		comm.TagWire(wire, fmt.Sprintf("ring ch %d chunk %d/%d", rc.ch, idx, total))
	}
	if rc.tel.on {
		rc.tel.chunkBytes.Observe(int64(len(wire)))
	}
}

// encodeChunkFrame builds chunk idx of a total-chunk train covering
// elements [elemOff, elemOff+elemCnt) of v, as an exactly-sized pooled
// draw: packed when the chunk's own data makes that at most half the
// bytes, else dense.
func (rc *ringChan[V]) encodeChunkFrame(spanID uint64, v V, idx, total, elemOff, elemCnt, elemAll int) []byte {
	if wire := rc.encodePackedFrame(spanID, v, idx, total, elemOff, elemCnt, elemAll); wire != nil {
		return wire
	}
	hs := chunkHeaderSize(spanID)
	buf := comm.GetBuffer(hs + rc.stride*elemCnt)
	wire := rc.ops.EncodeChunkTo(buf[:hs], v, elemOff, elemCnt)
	releaseIfAbandoned(buf, wire)
	rc.stampChunk(wire, spanID, idx, total, elemOff, elemCnt, elemAll, formDense)
	if rc.take {
		rc.ops.Packed.ClearChunk(v, elemOff, elemCnt)
	}
	return wire
}

// encodePackedFrame is the data-driven choice: one counting pass over
// the chunk, or its support's candidates (Packed.ChunkSize), and when
// packing wins, the packed frame as a pooled draw of that size. It
// returns nil when the chunk stays dense, or when the ops cannot pack.
func (rc *ringChan[V]) encodePackedFrame(spanID uint64, v V, idx, total, elemOff, elemCnt, elemAll int) []byte {
	if !rc.packs {
		return nil
	}
	bit := rc.outBit + elemOff
	size := rc.ops.Packed.ChunkSize(v, elemOff, elemCnt, rc.sup, bit)
	if size <= 0 {
		return nil
	}
	hs := chunkHeaderSize(spanID)
	buf := comm.GetBuffer(hs + size)
	encode := rc.ops.Packed.EncodeChunkTo
	if rc.take {
		encode = rc.ops.Packed.TakeChunkTo
	}
	wire := encode(buf[:hs], v, elemOff, elemCnt, rc.sup, bit)
	releaseIfAbandoned(buf, wire)
	rc.stampChunk(wire, spanID, idx, total, elemOff, elemCnt, elemAll, formPacked)
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
// one-frame step goes out as the whole-segment frame unless the segment
// packs: the packed form needs the chunk header's form byte, so it
// travels as a one-chunk train.
func (rc *ringChan[V]) encodeNext(spanID uint64, v V, total, elems, per int) []byte {
	if total > 1 {
		lo := rc.sent * per
		hi := min(lo+per, elems)
		return rc.encodeChunkFrame(spanID, v, rc.sent, total, lo, hi-lo, elems)
	}
	if wire := rc.encodePackedFrame(spanID, v, 0, 1, 0, elems, elems); wire != nil {
		return wire
	}
	buf := comm.GetBuffer(sizeHint(rc.ops, rc.hint, v) + frameHeaderSize(spanID))
	wire := encodeFrame(rc.ops, rc.epoch, spanID, buf, v)
	rc.hint = len(wire)
	if rc.take {
		rc.ops.Packed.ClearChunk(v, 0, elems)
	}
	return wire
}

// putChunkMeta serializes the 20-byte chunk header. The form rides in
// the top byte of the index word.
func putChunkMeta(dst []byte, idx, total, elemOff, elemCnt, elemAll int, form chunkForm) {
	putUint32(dst, uint32(idx)&chunkIdxMask|uint32(form)<<24)
	putUint32(dst[4:], uint32(total))
	putUint32(dst[8:], uint32(elemOff))
	putUint32(dst[12:], uint32(elemCnt))
	putUint32(dst[16:], uint32(elemAll))
}

// parseFrame splits one received ring frame into its header fields and
// payload, dispatching on the frame's own flags. It checks only that the
// header the flags announce is there; checkTrain judges what it says.
func parseFrame(in []byte) (frame, error) {
	if len(in) < epochHeaderSize {
		return frame{}, fmt.Errorf("collective: frame shorter than epoch header (%d bytes)", len(in))
	}
	word := uint32At(in, 0)
	fr := frame{wire: in, epoch: word & epochMask}
	hs := epochHeaderSize
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
		fr.form = chunkForm(iw >> 24)
		fr.idx = int(iw & chunkIdxMask)
		fr.total = int(uint32At(in, hs+4))
		fr.elemOff = int(uint32At(in, hs+8))
		fr.elemCnt = int(uint32At(in, hs+12))
		fr.elemAll = int(uint32At(in, hs+16))
		hs += chunkMetaSize
	}
	fr.payload = in[hs:]
	return fr, nil
}

// recvAny receives the next frame for this collective's epoch.
// Stale-epoch residue is dropped and the receive retried; a newer epoch
// means this collective was superseded.
func (rc *ringChan[V]) recvAny() (frame, error) {
	want := rc.epoch & epochMask
	for {
		in, err := rc.e.RecvPrevCtx(rc.sctx, rc.ch)
		if err != nil {
			return frame{}, err
		}
		fr, err := parseFrame(in)
		if err != nil {
			return frame{}, err
		}
		if fr.epoch == want {
			return fr, nil
		}
		if rc.releasable {
			comm.Release(in)
		}
		if epochNewer(fr.epoch, want) {
			return frame{}, fmt.Errorf("collective: epoch %d superseded by in-flight epoch %d", want, fr.epoch)
		}
	}
}

// checkTrain validates one incoming frame against the train state (got
// chunks received so far, need chunks expected or -1 before the first
// frame) so a corrupt or misrouted chunk fails the step instead of
// mis-reducing. The sender picks each chunk's form from its data, so one
// train may mix dense and packed chunks.
func (rc *ringChan[V]) checkTrain(fr frame, got, need int) error {
	switch {
	case !fr.chunked && got != 0:
		return fmt.Errorf("collective: whole-segment frame arrived inside a chunk train (%d/%d received)", got, need)
	case !fr.chunked:
		return nil
	case rc.stride <= 0:
		return fmt.Errorf("collective: peer sent a chunked frame but ops have no chunk decoder")
	case fr.form != formDense && fr.form != formPacked:
		return fmt.Errorf("%w: unknown chunk form %d in chunk header", ErrMalformedChunk, uint8(fr.form))
	case fr.form == formPacked && !rc.packs:
		return fmt.Errorf("collective: peer sent a packed chunk but ops have no packed decoder")
	case fr.total < 1 || fr.idx < 0 || fr.elemCnt < 0 || fr.elemOff < 0 || fr.elemAll < 0:
		return fmt.Errorf("collective: corrupt chunk header (idx %d total %d off %d cnt %d all %d)", fr.idx, fr.total, fr.elemOff, fr.elemCnt, fr.elemAll)
	case fr.idx != got:
		return fmt.Errorf("collective: chunk %d arrived, want chunk %d of %d", fr.idx, got, fr.total)
	case need >= 0 && fr.total != need:
		return fmt.Errorf("collective: chunk train length changed mid-step (%d vs %d)", fr.total, need)
	case fr.elemOff+fr.elemCnt > fr.elemAll:
		return fmt.Errorf("collective: chunk [%d,%d) exceeds its declared segment of %d elems", fr.elemOff, fr.elemOff+fr.elemCnt, fr.elemAll)
	case got == 0 && (fr.total > maxTrainChunks || fr.elemAll > fr.total*fr.elemCnt):
		// The plan cuts a segment into equal chunks but a shorter last one,
		// so no chunk of a train carries more than its first. A first chunk
		// declaring a segment its train cannot carry is refused before the
		// gather sizes a segment from it (MakeSegment(elemAll)).
		return fmt.Errorf("%w: a train of %d chunks of %d elems cannot carry a segment of %d", ErrMalformedChunk, fr.total, fr.elemCnt, fr.elemAll)
	case fr.form == formDense && len(fr.payload) != fr.elemCnt*rc.stride:
		return fmt.Errorf("collective: chunk payload %d bytes, want %d (%d elems × stride %d)", len(fr.payload), fr.elemCnt*rc.stride, fr.elemCnt, rc.stride)
	case fr.form == formPacked && len(fr.payload) < 8*serde.PackedWords(fr.elemCnt):
		// The rest of a packed payload's length depends on its popcount
		// and is checked at decode.
		return fmt.Errorf("%w: payload %d bytes, shorter than the %d-word bitmap of %d elems", ErrMalformedChunk, len(fr.payload), serde.PackedWords(fr.elemCnt), fr.elemCnt)
	}
	return nil
}

// releaseFrame returns one received frame's buffer to the pool when the
// ops' contracts prove it unretained: always for chunk payloads (the
// chunk decoders are defined non-retaining), for whole-segment frames
// only under the DecodeReduceInto marker.
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
	if fr.form == formPacked {
		// Not sharded: the walk costs ∝ non-zeros, at most half a dense
		// chunk's adds, and a shard would need the popcount of everything
		// before it to find its values.
		return rc.ops.Packed.DecodeReduceChunkInto(acc, fr.elemOff, fr.elemCnt, fr.payload)
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
// Every step of ops that can pack also records its dense byte equivalent
// (the raw-bytes histogram and span attribute) whether or not anything
// packed, so raw ÷ wire is the achieved reduction and raw alone the
// volume the algorithm moves.
func (rc *ringChan[V]) finishStep(span *trace.ActiveSpan, chunks int) {
	if !rc.tel.on {
		return
	}
	rc.tel.stepBytes.Observe(rc.stepBytes)
	if rc.packs {
		rc.tel.stepRaw.Observe(rc.stepRaw)
	}
	if span == nil {
		return
	}
	span.SetInt("bytes", rc.stepBytes)
	span.SetHex("peer_span", rc.peerSpan)
	if rc.packs {
		span.SetInt("raw_bytes", rc.stepRaw)
		span.SetInt("packed_chunks", rc.packedOut)
	}
	if chunks > 1 {
		span.SetInt("chunks", int64(chunks))
		span.SetInt("reduce_ns", rc.reduceNS)
		span.SetInt("overlap_ns", rc.overlapNS)
	}
}

// transferReduce runs one reduce-scatter step on channel rc: stream
// segment out (segment sendSeg of src) to the successor while receiving
// the predecessor's share of segment recvSeg and reducing it into the
// local one. Returns the updated accumulator.
//
// The schedule keeps the send window full first (two chunks in flight),
// then alternates receives — each received chunk decode-reduces while
// the window drains on the wire — and retires completions
// opportunistically, so encode, wire and reduce overlap within the step
// instead of running back to back. out goes back to src as soon as its
// last chunk is encoded, and recvSeg is taken from src just before the
// first receive: a train that fits the window is given back first, so a
// source can hand the same buffer out again for the segment reduced
// into, while it is still in cache.
func transferReduce[V any, S Segments[V]](rc *ringChan[V], sctx context.Context, span *trace.ActiveSpan, src S, out V, sendSeg, recvSeg int) (V, error) {
	spanID := span.ID()
	outTotal, elems, per := rc.outPlan(out)
	rc.beginStep(sctx)

	var acc V
	taken := false
	inNeed, inGot, inEnd := -1, 0, 0
	for {
		// Keep the double buffer full: encode and launch the next chunk
		// whenever fewer than two frames are in flight.
		if rc.sent < outTotal && rc.inflight() < 2 {
			rc.sendFrame(rc.encodeNext(spanID, out, outTotal, elems, per))
			if rc.sent == outTotal {
				src.Give(sendSeg, rc.ch, out)
			}
			continue
		}
		// Receive while the window is full (or everything is sent): the
		// reduce below runs while both in-flight chunks traverse the
		// wire — this interleaving is the pipeline.
		if inNeed < 0 || inGot < inNeed {
			if !taken {
				acc, taken = src.Take(recvSeg, rc.ch), true
			}
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
				canRelease = true
				// A train covers the segment it reduces into, in element order.
				if inEnd += fr.elemCnt; fr.elemOff+fr.elemCnt != inEnd || (inGot == inNeed && inEnd != rc.ops.Elems(acc)) {
					rerr = fmt.Errorf("%w: chunk %d covers [%d,%d) of a %d-element segment, its train is at %d",
						ErrMalformedChunk, fr.idx, fr.elemOff, fr.elemOff+fr.elemCnt, rc.ops.Elems(acc), inEnd-fr.elemCnt)
				} else {
					rerr = rc.reduceChunk(acc, fr)
				}
			} else {
				inNeed, inGot = 1, 1
				acc, canRelease, rerr = decodeReduce(rc.ops, acc, fr.payload)
			}
			if rc.tel.on {
				active := rc.inflight() > 0 || rc.sent < outTotal || inGot < inNeed
				rc.observeReduce(time.Since(start), active)
			}
			if rerr == nil && rc.sup != nil {
				rc.markSupport(acc, fr)
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
		putChunkMeta(wire[metaOff:], f.idx, f.total, f.elemOff, f.elemCnt, f.elemAll, f.form)
	}
	putUint32(wire, word)
	if comm.RaceGuard {
		comm.TagWire(wire, fmt.Sprintf("ring ch %d fwd chunk %d/%d", rc.ch, f.idx, f.total))
	}
	if rc.tel.on && f.chunked {
		rc.tel.chunkBytes.Observe(int64(len(wire)))
	}
	if f.form == formPacked {
		// A relayed packed frame keeps its payload untouched; account the
		// dense equivalent for the raw-bytes telemetry.
		rc.lastRaw = int64(hs + rc.stride*f.elemCnt)
		rc.packedOut++
	}
	return wire
}

// decodeChunk is the allgather assembly of one chunk: set (not add)
// elements [elemOff, elemOff+elemCnt) of dst from the payload.
func (rc *ringChan[V]) decodeChunk(dst V, fr frame) error {
	if fr.elemOff+fr.elemCnt > rc.ops.Elems(dst) {
		return fmt.Errorf("collective: chunk [%d,%d) exceeds assembled segment of %d elems",
			fr.elemOff, fr.elemOff+fr.elemCnt, rc.ops.Elems(dst))
	}
	if fr.form == formPacked {
		return rc.ops.Packed.DecodeChunkInto(dst, fr.elemOff, fr.elemCnt, fr.payload)
	}
	return rc.ops.DecodeChunkInto(dst, fr.elemOff, fr.payload)
}

// assembleTrain decodes a complete chunk train, whose chunks cover
// [0, n) in order, into a fresh n-element segment. The segment is sized
// once its chunks have arrived, from the elements they carried, never
// from a header's elemAll alone: no header makes the gather allocate
// more than its train's bytes can fill (8 B per element dense, one bit
// packed).
func (rc *ringChan[V]) assembleTrain(train []fwdFrame, n int) (V, error) {
	if last := train[len(train)-1]; n != last.elemAll {
		var zero V
		return zero, fmt.Errorf("%w: a train covering %d elements of a %d-element segment", ErrMalformedChunk, n, last.elemAll)
	}
	seg := rc.ops.MakeSegment(n)
	for _, f := range train {
		if err := rc.decodeChunk(seg, frame{payload: f.wire[f.payloadOff:], chunkMeta: f.chunkMeta}); err != nil {
			return seg, err
		}
	}
	return seg, nil
}

// gatherAbort cleans up a failed allgather step: drain the send window
// and return every frame this rank still owns (unsent forwards, and the
// receives it kept or holds for a train's assembly) to the pool.
func (rc *ringChan[V]) gatherAbort(fwd, kept []fwdFrame) {
	rc.abortSends()
	for _, f := range kept {
		rc.releaseFrame(frame{wire: f.wire, chunkMeta: f.chunkMeta})
	}
	if rc.releasable && rc.sent < len(fwd) {
		for _, f := range fwd[rc.sent:] {
			comm.Release(f.wire)
		}
	}
}

// transferGather runs one allgather step on this channel: relay the
// frames gathered last step (fwd; step 0 encodes all[sendSlot] instead)
// while receiving the predecessor's frames for all[recvSlot]. A chunk
// train is held as it arrives and assembled once complete
// (assembleTrain). When keep is set the received frames are retained and
// returned for the next step's relay — cut-through forwarding,
// re-framed header only — otherwise they are released. parity selects
// the recycled backing array for the held and returned list.
func (rc *ringChan[V]) transferGather(sctx context.Context, span *trace.ActiveSpan, all []V, sendSlot, recvSlot int, fwd []fwdFrame, keep bool, parity int) ([]fwdFrame, error) {
	spanID := span.ID()
	outTotal, elems, per := len(fwd), 0, 0
	if len(fwd) == 0 {
		outTotal, elems, per = rc.outPlan(all[sendSlot])
	}
	rc.beginStep(sctx)

	kept := rc.fwdBufs[parity][:0]
	inNeed, inGot, inEnd := -1, 0, 0
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
			held := false // fr is in kept, which owns it from here
			switch {
			case !fr.chunked:
				inNeed, inGot = 1, 1
				var v V
				if v, derr = rc.ops.Decode(fr.payload); derr == nil {
					all[recvSlot] = v
				}
				held = keep
			case fr.elemOff != inEnd:
				derr = fmt.Errorf("%w: chunk %d starts at element %d, its train is at %d", ErrMalformedChunk, fr.idx, fr.elemOff, inEnd)
			default:
				inNeed = fr.total
				inGot++
				inEnd += fr.elemCnt
				held = true
			}
			if held {
				kept = append(kept, fwdFrame{wire: fr.wire, payloadOff: len(fr.wire) - len(fr.payload), chunkMeta: fr.chunkMeta})
			} else {
				rc.releaseFrame(fr)
			}
			if fr.chunked && derr == nil && inGot == inNeed {
				all[recvSlot], derr = rc.assembleTrain(kept, inEnd)
			}
			if rc.tel.on {
				active := rc.inflight() > 0 || rc.sent < outTotal || inGot < inNeed
				rc.observeReduce(time.Since(start), active)
			}
			if derr != nil {
				rc.gatherAbort(fwd, kept)
				return nil, derr
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
	rc.fwdBufs[parity] = kept // persist growth for the next lap
	if !keep {
		for _, f := range kept {
			rc.releaseFrame(frame{wire: f.wire, chunkMeta: f.chunkMeta})
		}
		kept = nil
	}
	rc.finishStep(span, outTotal)
	return kept, nil
}
