package core

// Compact aggregators (DESIGN.md §16 and §18). A task whose Fold
// accepts holds its aggregator in the aggregator's support: the values
// at the set bits of the support of its elements, in bit order, for an
// n-element []float64 aggregator that is +0.0 everywhere else. The IMM
// stage keeps it so when it is the only task on its executor, the IMM
// gather encodes the frame straight from it, and the ring reads it
// through compactSegs, which builds each segment in a reusable buffer
// just before the ring first uses it. No executor then holds the dense
// n-element vector.

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"sparker/internal/comm"
	"sparker/internal/serde"
)

// vecList is a free list of []float64 buffers — for linalg's vecFree
// reason, a channel and not a sync.Pool: a GC'd pool would hand back
// fresh memory most steps.
type vecList chan []float64

// compactVals holds Fold's compact accumulators between steps, and
// segBufs the ring's segment buffers (compactSegs), all +0.0 while
// parked, so a get needs no clearing. Neither goes through
// AggFuncs.Recycle: linalg's free list drops vectors of another size.
// compactVals holds one accumulator per task slot of a few in-process
// executors; segBufs the buffers the channels run in (one each, two
// when a segment spans more than the send window) of four executors at
// P = 4, and headroom.
var (
	compactVals = make(vecList, 16)
	segBufs     = make(vecList, 64)
)

// parkedVecs is the race-build guard of both lists: parking a backing
// array that is already parked panics, as the wire pool's guard does.
var parkedVecs sync.Map // *float64 -> struct{}

// get returns a buffer of length n — a parked one whose capacity fits n
// without wasting more than half, else a fresh one with a little
// headroom (segment and support sizes vary by a few elements).
func (l vecList) get(n int) []float64 {
	select {
	case v := <-l:
		if comm.RaceGuard {
			parkedVecs.Delete(unsafe.SliceData(v[:cap(v)]))
		}
		if cap(v) >= n && cap(v) <= 2*n {
			return v[:n]
		}
	default:
	}
	return make([]float64, n, n+n/16+1)
}

// put parks v; on segBufs, v must be all +0.0.
func (l vecList) put(v []float64) {
	if cap(v) == 0 {
		return
	}
	key := unsafe.SliceData(v[:cap(v)])
	if comm.RaceGuard {
		if _, dup := parkedVecs.LoadOrStore(key, struct{}{}); dup {
			panic(fmt.Sprintf("core: a %d-element aggregator buffer is parked twice", cap(v)))
		}
	}
	select {
	case l <- v:
	default:
		if comm.RaceGuard {
			parkedVecs.Delete(key)
		}
	}
}

// onesBelow is the number of set bits of sup below bit b.
func onesBelow(sup []uint64, b int) int {
	n := 0
	for _, w := range sup[:b>>6] {
		n += bits.OnesCount64(w)
	}
	if r := b & 63; r != 0 {
		n += bits.OnesCount64(sup[b>>6] & (1<<uint(r) - 1))
	}
	return n
}

// scatterVals writes vals, one per set bit of sup in [lo, lo+len(dst)),
// to those bits' elements of dst (element lo+i is dst[i]). Elements at
// clear bits are not touched.
func scatterVals(dst []float64, sup []uint64, lo int, vals []float64) {
	k := 0
	for w := 0; w < len(dst); w += 64 {
		for m := serde.BitsAt(sup, lo+w, min(64, len(dst)-w)); m != 0; m &= m - 1 {
			dst[w+bits.TrailingZeros64(m)] = vals[k]
			k++
		}
	}
}

// compactFold is the compact fold of one task's elems, whose support is
// sup, and whether Fold accepted: the values, in a buffer from
// compactVals, and the dense aggregator's element count. Only
// []float64 aggregators whose Ops pack (f64Wire) fold compactly, and
// only from a known support; an accepted fold must hold one value per
// set bit of sup, a bitmap of PackedWords(n) words.
func (f *AggFuncs[T, U, V]) compactFold(elems []T, sup []uint64) (vals []float64, n int, ok bool, err error) {
	if f.Fold == nil || !f.f64Wire() || sup == nil {
		return nil, 0, false, nil
	}
	buf := compactVals.get(onesBelow(sup, 64*len(sup)))[:0]
	u, n, ok, err := f.Fold(any(buf).(U), elems)
	vals = any(u).([]float64)
	switch {
	case err != nil || !ok:
		compactVals.put(buf)
		return nil, 0, false, err
	case len(sup) != serde.PackedWords(n) || len(vals) != onesBelow(sup, n):
		return nil, 0, false, fmt.Errorf("core: Fold returned %d values of a %d-element aggregator, for a support of %d words",
			len(vals), n, len(sup))
	}
	return vals, n, true, nil
}

// expand is the dense aggregator the compact vals stand for: Zero()
// with vals written at sup's set bits — bit for bit the aggregator Zero
// and SeqOp would have made. vals goes back to compactVals.
func (f *AggFuncs[T, U, V]) expand(vals U, sup support, n int) U {
	u := f.Zero()
	dense := any(u).([]float64)
	if len(dense) != n {
		panic(fmt.Sprintf("core: Fold's aggregator has %d elements, Zero's %d", n, len(dense)))
	}
	c := any(vals).([]float64)
	scatterVals(dense, sup.bits, 0, c)
	compactVals.put(c)
	return u
}

// compactSegs is a compact aggregator as the ring's segment source
// (collective.Segments): the n-element aggregator holding vals at the
// set bits of sup and +0.0 elsewhere, cut into nSegs segments at
// SplitSlice's bounds. Take writes segment i's values into a clean
// buffer — the channel's spare, else one from segBufs — and Give keeps
// the buffer, which the ring's send of the segment left all +0.0
// (collective.PackedOps.TakeChunkTo), as the channel's spare. The ring
// gives a one-chunk segment back before it takes the next, so a channel
// runs in one buffer. giveBack clears what the ring owned at the end,
// and returns it and the spares to segBufs.
//
// Ownership: vals and sup are read-only while the ring runs, and
// release hands vals on to compactVals; ring is the support the ring
// may write (WithSupport), the source's own copy of sup. A buffer
// belongs to the ring from Take to Give, to the channel's spare slot or
// to segBufs otherwise, and is all +0.0 whenever the ring does not hold
// it.
type compactSegs struct {
	vals     []float64
	sup      []uint64
	ring     []uint64
	n, nSegs int
	// rank[i] is the index in vals of segment i's first value: the set
	// bits of sup below the segment.
	rank  []int
	spare [][]float64 // by channel
}

// compactSources recycles compactSegs, and their ring support, between
// ring tasks.
var compactSources = sync.Pool{New: func() any { return new(compactSegs) }}

// newCompactSegs returns the source of the compact aggregator vals over
// sup, of n elements, cut into nSegs segments.
func newCompactSegs(vals []float64, sup []uint64, n, nSegs int) *compactSegs {
	c := compactSources.Get().(*compactSegs)
	c.vals, c.sup, c.n, c.nSegs = vals, sup, n, nSegs
	c.rank = c.rank[:0]
	k := 0
	for i := 0; i < nSegs; i++ {
		c.rank = append(c.rank, k)
		lo, hi := c.bounds(i)
		for w := lo; w < hi; w += 64 {
			k += bits.OnesCount64(serde.BitsAt(sup, w, min(64, hi-w)))
		}
	}
	c.spare = c.spare[:0]
	for range nSegs {
		c.spare = append(c.spare, nil)
	}
	c.reset()
	return c
}

// reset readies c for another ring over the same aggregator: the ring's
// support back to sup, in place.
func (c *compactSegs) reset() {
	c.ring = append(c.ring[:0], c.sup...)
}

// bounds is segment i's element range, as SplitSlice cuts it.
func (c *compactSegs) bounds(i int) (lo, hi int) {
	return i * c.n / c.nSegs, (i + 1) * c.n / c.nSegs
}

// Elems is segment i's element count.
func (c *compactSegs) Elems(i int) int {
	lo, hi := c.bounds(i)
	return hi - lo
}

// Take materializes segment i for channel ch.
func (c *compactSegs) Take(i, ch int) []float64 {
	lo, hi := c.bounds(i)
	buf := c.spare[ch]
	c.spare[ch] = nil
	if cap(buf) < hi-lo {
		segBufs.put(buf)
		buf = segBufs.get(hi - lo)
	}
	buf = buf[:hi-lo]
	scatterVals(buf, c.sup, lo, c.vals[c.rank[i]:])
	return buf
}

// Give keeps segment i's buffer, which the ring cleared as it sent it,
// as channel ch's spare.
func (c *compactSegs) Give(i, ch int, v []float64) {
	segBufs.put(c.spare[ch])
	c.spare[ch] = v
}

// first is segment i's first element.
func (c *compactSegs) first(i int) int {
	lo, _ := c.bounds(i)
	return lo
}

// giveBack ends a ring that succeeded: the owned segments, cleared,
// and every spare go back to segBufs. After a failed ring nothing goes
// back: what the ring held is left to the collector.
func (c *compactSegs) giveBack(owned map[int][]float64) {
	for _, v := range owned {
		clear(v)
		segBufs.put(v)
	}
	for ch, v := range c.spare {
		segBufs.put(v)
		c.spare[ch] = nil
	}
}

// release is giveBack, the values back to compactVals and c to its
// pool.
func (c *compactSegs) release(owned map[int][]float64) {
	c.giveBack(owned)
	compactVals.put(c.vals)
	c.vals, c.sup = nil, nil
	compactSources.Put(c)
}
