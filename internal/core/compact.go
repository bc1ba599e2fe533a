package core

// Compact aggregators (DESIGN.md §16 and §18). A task whose Fold
// accepts holds its aggregator in the aggregator's support: the values
// at the set bits of the support of its elements, in bit order, for an
// n-element []float64 aggregator that is +0.0 everywhere else. The IMM
// stage keeps it so when it is the only task on its executor, the IMM
// gather encodes the frame straight from it, and the ring reads it
// through compactSegs, which holds each segment as a packed body from
// the fold to its owner's gather frame. No executor then holds the
// dense n-element vector.

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

// compactVals holds Fold's compact accumulators between steps, one per
// task slot of a few in-process executors. It is not linalg's free
// list, which drops vectors of another size.
var compactVals = make(vecList, 16)

// parkedVecs is the race-build guard of compactVals and bodies: parking
// a backing array or a body that is already parked panics, as the wire
// pool's guard does.
var parkedVecs sync.Map // *float64 or *serde.Body -> struct{}

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

// put parks v.
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

// compactSegs is a []float64 aggregator as the ring's segment source
// (collective.Segments over collective.BodyOps), cut into nSegs
// segments at SplitSlice's bounds: compact, the n-element aggregator
// holding vals at the set bits of sup and +0.0 elsewhere; dense, vals
// itself, whose possibly non-zero elements sup marks (nil: unknown).
// Take gives segment i a body from the bodies list — compact, its bitmap
// and its values, read straight from vals (serde.Body.Load); dense, a
// view of vals with sup's share as candidates (serde.Body.View) — and
// Give parks a sent body there again; the ring merges what it receives
// into bodies, so a compact segment is never laid out at its dense
// length unless it passes the ½ rule, and a dense one is reduced in
// place. release parks the owned bodies and hands compact vals on to
// compactVals; a dense aggregator stays its plane's.
//
// Ownership: vals and sup are read-only while the ring runs, but for
// the views the ring reduces in. A body belongs to the ring from Take to
// Give, to the caller once the ring returns it owned, and to the bodies
// list otherwise; after a failed ring nothing is parked, and what the
// ring held is left to the collector.
type compactSegs struct {
	vals     []float64
	sup      []uint64
	n, nSegs int
	compact  bool
	// rank[i] is, compact, the index in vals of segment i's first value:
	// the set bits of sup below the segment.
	rank []int
}

// compactSources recycles compactSegs between ring tasks; bodies holds
// the ring's segment bodies between steps — for vecList's reason a
// channel — a few for each channel of four executors at P = 4, and
// headroom.
var (
	compactSources = sync.Pool{New: func() any { return new(compactSegs) }}
	bodies         = make(chan *serde.Body, 64)
)

// newCompactSegs returns the source of the n-element aggregator vals
// over sup, compact or dense, cut into nSegs segments.
func newCompactSegs(vals []float64, sup []uint64, n, nSegs int, compact bool) *compactSegs {
	c := compactSources.Get().(*compactSegs)
	c.vals, c.sup, c.n, c.nSegs, c.compact = vals, sup, n, nSegs, compact
	c.rank = c.rank[:0]
	k := 0
	for i := 0; compact && i < nSegs; i++ {
		c.rank = append(c.rank, k)
		lo, hi := c.bounds(i)
		for w := lo; w < hi; w += 64 {
			k += bits.OnesCount64(serde.BitsAt(sup, w, min(64, hi-w)))
		}
	}
	return c
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

// Take loads segment i into a body, or makes the body its view.
func (c *compactSegs) Take(i, _ int) *serde.Body {
	var b *serde.Body
	select {
	case b = <-bodies:
		if comm.RaceGuard {
			parkedVecs.Delete(b)
		}
	default:
		b = new(serde.Body)
	}
	lo, hi := c.bounds(i)
	if c.compact {
		b.Load(hi-lo, c.sup, lo, c.vals[c.rank[i]:])
	} else {
		b.View(c.vals[lo:hi], c.sup, lo)
	}
	return b
}

// Give parks segment i's body, which the ring has sent.
func (c *compactSegs) Give(_, _ int, b *serde.Body) {
	if comm.RaceGuard {
		if _, dup := parkedVecs.LoadOrStore(b, struct{}{}); dup {
			panic(fmt.Sprintf("core: a %d-element segment body is parked twice", b.N))
		}
	}
	select {
	case bodies <- b:
	default:
		if comm.RaceGuard {
			parkedVecs.Delete(b)
		}
	}
}

// release ends a ring that succeeded, once nothing reads the owned
// bodies: they go back to the bodies list, compact values to compactVals
// and c to its pool.
func (c *compactSegs) release(owned map[int]*serde.Body) {
	for i, b := range owned {
		c.Give(i, 0, b)
	}
	if c.compact {
		compactVals.put(c.vals)
	}
	c.vals, c.sup = nil, nil
	compactSources.Put(c)
}
