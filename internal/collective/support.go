package collective

// Support bitmaps (DESIGN.md §11 and §18): bit i%64 of word i/64 for
// element i of a segment set, and a clear bit promises the element is
// +0.0, so the packed encoder may skip it and still write the scan's
// bytes.

import (
	"context"
	"sync"

	"sparker/internal/serde"
)

// supportKey carries a support bitmap through a context.
type supportKey struct{}

// WithSupport hands the reduce-scatter run under ctx the support of the
// segments it reduces: words covers the concatenation of the segments
// in order (segs[0]'s elements first). The ring encodes from it, ORs
// into it the support of everything it reduces in, and leaves it
// covering the reduced segments when it returns, so the caller may
// encode the owned segments from it too. Nothing else may touch words
// meanwhile. Ops that cannot pack ignore it, as does a bitmap whose
// length is not PackedWords of the total element count; without one the
// encoder scans.
func WithSupport(ctx context.Context, words []uint64) context.Context {
	return context.WithValue(ctx, supportKey{}, words)
}

// supportFor returns the support ctx carries for segs, or nil when there
// is none, the ops cannot pack, or its length does not fit segs.
func supportFor[V any](ctx context.Context, ops Ops[V], segs []V) []uint64 {
	s, _ := ctx.Value(supportKey{}).([]uint64)
	if s == nil || !ops.CanPack() || len(s) != serde.PackedWords(segsElems(ops, segs)) {
		return nil
	}
	return s
}

// orBitsAt ORs m into sup at bit b. The bits of m past the ones sup
// covers must be clear.
func orBitsAt(sup []uint64, b int, m uint64) {
	q, r := b>>6, uint(b&63)
	sup[q] |= m << r
	if r != 0 && m>>(64-r) != 0 {
		sup[q+1] |= m >> (64 - r)
	}
}

// setBits sets bits [b, b+k) of sup.
func setBits(sup []uint64, b, k int) {
	for k > 0 {
		n := min(64, k)
		orBitsAt(sup, b, ^uint64(0)>>uint(64-n))
		b, k = b+n, k-n
	}
}

// supportPool recycles the ring channels' private support copies.
var supportPool = sync.Pool{New: func() any { return new([]uint64) }}

// segsElems is the element count of segs.
func segsElems[V any](ops Ops[V], segs []V) int {
	n := 0
	for _, s := range segs {
		n += ops.Elems(s)
	}
	return n
}

// loadSupport gives the channel its private copy of its block's share
// of shared, which starts at bit lo: bit 0 of the copy is the block's
// first element, so the channel's writes never share a word with
// another channel's. mu serializes every access to shared.
func (rc *ringChan[V]) loadSupport(mu *sync.Mutex, shared []uint64, lo int, block []V) {
	elems := segsElems(rc.ops, block)
	rc.supBuf = supportPool.Get().(*[]uint64)
	if cap(*rc.supBuf) < serde.PackedWords(elems) {
		*rc.supBuf = make([]uint64, serde.PackedWords(elems))
	}
	own := (*rc.supBuf)[:serde.PackedWords(elems)]
	mu.Lock()
	for w := range own {
		own[w] = serde.BitsAt(shared, lo+64*w, min(64, elems-64*w))
	}
	mu.Unlock()
	rc.sup, rc.supLo = own, lo
}

// storeSupport ORs the channel's copy back into shared, whose lock the
// caller holds, and returns the copy to the pool.
func (rc *ringChan[V]) storeSupport(shared []uint64) {
	if rc.sup == nil {
		return
	}
	for w, m := range rc.sup {
		orBitsAt(shared, rc.supLo+64*w, m)
	}
	supportPool.Put(rc.supBuf)
	rc.sup, rc.supBuf = nil, nil
}

// markSupport ORs into the channel's copy what a reduced frame can have
// made non-zero in the segment at rc.inBit: the set bits of a packed
// chunk, the whole range of a dense one.
func (rc *ringChan[V]) markSupport(acc V, fr frame) {
	switch {
	case !fr.chunked:
		setBits(rc.sup, rc.inBit, rc.ops.Elems(acc))
	case fr.form == formPacked:
		// The decoder validated the bitmap: no bits past elemCnt.
		for w := 0; w < serde.PackedWords(fr.elemCnt); w++ {
			orBitsAt(rc.sup, rc.inBit+fr.elemOff+64*w, uint64At(fr.payload, 8*w))
		}
	default:
		setBits(rc.sup, rc.inBit+fr.elemOff, fr.elemCnt)
	}
}
