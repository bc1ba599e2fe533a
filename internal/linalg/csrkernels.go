package linalg

// Fused kernels over packed CSR partitions. Each kernel replaces the
// per-point Gradient.Compute fold (interface call + Dot + Axpy per
// point) with one streaming pass over the arenas, and its result is
// bitwise identical to that sequential fold. Two properties make that
// possible:
//
//  1. Per-row work (the margin dot, the multiplier, the loss) uses the
//     exact accumulation order of the scalar path. The 4-wide dot
//     batching below only interleaves *independent* chains (four rows)
//     for instruction-level parallelism, without reassociating any sum.
//  2. Accumulator updates (cum[j] += mult·v, the loss fold, counts) run
//     in row order: each row scatters right after its margin, while its
//     entries are hot in cache, so every cum[j] receives its
//     contributions in exactly the sequential order. The in-row scatter
//     unrolling is safe for the same reason the batched dots are:
//     indices within a row are strictly increasing, so the four
//     unrolled updates always hit distinct accumulator elements.
//
// A kernel call runs on the calling goroutine only. A packed job's
// parallelism is its tasks: an executor runs one task per core, and
// in-memory merge combines their accumulators (DESIGN.md §16). The
// kernels keep no state between calls — nothing is cached on the matrix
// and nothing is allocated (the `make overhead` packed gate).

import "math"

// CSRGradKind selects the fused gradient family, mirroring
// mllib.{Logistic,LeastSquares,Hinge}Gradient.
type CSRGradKind int

// Fused gradient families.
const (
	CSRLogistic CSRGradKind = iota
	CSRLeastSquares
	CSRHinge
)

// Log1pExp computes log(1 + exp(m)) stably — shared with the scalar
// logistic path so both compute identical bits.
func Log1pExp(m float64) float64 {
	if m > 0 {
		return m + math.Log1p(math.Exp(-m))
	}
	return math.Log1p(math.Exp(m))
}

// CSRGrad folds one fused gradient pass over m against weights w,
// accumulating the gradient sum into cum (len >= m.Dim; must not alias
// w) and returning the loss sum and the sample count. rows selects a
// sampled row subset in fold order (nil: all rows). The result — cum,
// loss sum, and count — is bitwise identical to folding grad.Compute
// over the same rows sequentially. m must be labeled (Labels non-nil)
// unless it has no rows.
//
// The last parameter is ignored: the pass runs on the calling
// goroutine. It remains only because the benchmark's linalg probe
// passes it, and benchmark/ changes only in its own revision.
func CSRGrad(kind CSRGradKind, m *CSRMatrix, rows []int32, w, cum []float64, _ int) (lossSum, count float64) {
	offs, idx, vals, labs := m.RowOffsets, m.Indices, m.Values, m.Labels
	hinge := kind == CSRHinge
	n := m.Rows()
	if rows != nil {
		n = len(rows)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := i, i+1, i+2, i+3
		if rows != nil {
			r0, r1, r2, r3 = int(rows[i]), int(rows[i+1]), int(rows[i+2]), int(rows[i+3])
		}
		d0, d1, d2, d3 := csrDots4(offs, idx, vals, w, r0, r1, r2, r3)
		m0, l0 := csrMargin(kind, labs[r0], d0)
		m1, l1 := csrMargin(kind, labs[r1], d1)
		m2, l2 := csrMargin(kind, labs[r2], d2)
		m3, l3 := csrMargin(kind, labs[r3], d3)
		if !hinge || !hingeInactive(m0) {
			csrScatterRow(idx, vals, cum, m0, offs[r0], offs[r0+1])
		}
		lossSum += l0
		if !hinge || !hingeInactive(m1) {
			csrScatterRow(idx, vals, cum, m1, offs[r1], offs[r1+1])
		}
		lossSum += l1
		if !hinge || !hingeInactive(m2) {
			csrScatterRow(idx, vals, cum, m2, offs[r2], offs[r2+1])
		}
		lossSum += l2
		if !hinge || !hingeInactive(m3) {
			csrScatterRow(idx, vals, cum, m3, offs[r3], offs[r3+1])
		}
		lossSum += l3
	}
	for ; i < n; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		d := csrDot1(offs, idx, vals, w, r)
		mlt, l := csrMargin(kind, labs[r], d)
		if !hinge || !hingeInactive(mlt) {
			csrScatterRow(idx, vals, cum, mlt, offs[r], offs[r+1])
		}
		lossSum += l
	}
	return lossSum, float64(n)
}

// CSRKMeans assigns every row of m to its nearest center and
// accumulates the per-center sums, counts and total cost into acc
// (layout [k*dim) sums, [k*dim,k*dim+k) counts, [k*dim+k] cost —
// TrainKMeans's aggregator), one row at a time in row order. centers is
// the k×dim row-major flattened snapshot; cNorms[c] must equal the
// sequential self-dot of center c (CSRKMeansCenterNorms). Bitwise
// identical to folding the sequential nearest-center seqOp over the
// rows: the distance is sqDist's exact arithmetic, d = cNorm − 2·dot +
// xNorm clamped at 0, and a strict less keeps the lowest index on ties.
func CSRKMeans(m *CSRMatrix, centers, cNorms []float64, k, dim int, acc []float64) {
	if k == 0 {
		return
	}
	offs, idx, vals := m.RowOffsets, m.Indices, m.Values
	for r, n := 0, m.Rows(); r < n; r++ {
		s, e := offs[r], offs[r+1]
		ii, vv := idx[s:e], vals[s:e:e]
		var xNorm float64
		for _, v := range vv {
			xNorm += v * v
		}
		best, bestDist := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			row := centers[c*dim : (c+1)*dim]
			var dot float64
			for j, ix := range ii {
				dot += row[ix] * vv[j]
			}
			d := cNorms[c] - 2*dot + xNorm
			if d < 0 {
				d = 0
			}
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		csrSumRow(idx, vals, acc, best*dim, s, e)
		acc[k*dim+best]++
		acc[k*dim+k] += bestDist
	}
}

// CSRKMeansCenterNorms fills norms[c] with center c's squared norm
// using the same accumulation order as the scalar sqDist, so the fused
// distances match it bitwise.
func CSRKMeansCenterNorms(centers []float64, k, dim int, norms []float64) {
	for c := 0; c < k; c++ {
		var s float64
		for _, v := range centers[c*dim : (c+1)*dim] {
			s += v * v
		}
		norms[c] = s
	}
}

// --- pooled accumulators ----------------------------------------------

// vecFree is a small GC-proof free list for dense accumulator vectors:
// a split-aggregation step needs one aggregator-sized []float64 per
// partition, and a training loop asks for the same size every step. A
// sync.Pool is wrong here: GC strips pools every cycle, and a training
// loop allocates enough per iteration (task closures, reduce buffers)
// to keep GC ticking, so the vectors would be refaulted and rezeroed
// almost every step. Capacity bounds retention to a few vectors per
// in-process executor.
var vecFree = make(chan []float64, 16)

// GetVec returns a zeroed vector of length n, reusing one parked by
// PutVec when it fits (capacity in [n, 2n]). A parked vector of another
// size is dropped for the garbage collector: the list serves one shape
// at a time, which is what an optimizer loop presents.
func GetVec(n int) []float64 {
	select {
	case v := <-vecFree:
		if cap(v) >= n && cap(v) <= 2*n {
			v = v[:n]
			clear(v)
			return v
		}
	default:
	}
	return make([]float64, n)
}

// PutVec parks v for a later GetVec. The caller must hold the only
// reference: v is overwritten as soon as it is handed out again.
func PutVec(v []float64) {
	if cap(v) == 0 {
		return
	}
	select {
	case vecFree <- v:
	default:
	}
}

// --- row primitives ---------------------------------------------------

// csrDot1 computes one row's margin dot in the scalar path's order.
func csrDot1(offs []int64, idx []int32, vals, w []float64, r int) float64 {
	s, e := offs[r], offs[r+1]
	ii, vv := idx[s:e], vals[s:e:e]
	var d float64
	for j, ix := range ii {
		d += w[ix] * vv[j]
	}
	return d
}

// csrDots4 computes four rows' dots with interleaved (independent)
// chains: a shared loop over the common prefix length, then per-row
// tails. Each chain's add order equals csrDot1's — the interleave only
// breaks the float-add latency serialization of a lone dot chain.
func csrDots4(offs []int64, idx []int32, vals, w []float64, r0, r1, r2, r3 int) (d0, d1, d2, d3 float64) {
	k0, e0 := offs[r0], offs[r0+1]
	k1, e1 := offs[r1], offs[r1+1]
	k2, e2 := offs[r2], offs[r2+1]
	k3, e3 := offs[r3], offs[r3+1]
	c := e0 - k0
	if l := e1 - k1; l < c {
		c = l
	}
	if l := e2 - k2; l < c {
		c = l
	}
	if l := e3 - k3; l < c {
		c = l
	}
	// Equal-length prefix subslices let the compiler drop the index
	// bounds checks in the shared loop.
	i0, v0 := idx[k0:k0+c], vals[k0:k0+c:k0+c]
	i1, v1 := idx[k1:k1+c], vals[k1:k1+c:k1+c]
	i2, v2 := idx[k2:k2+c], vals[k2:k2+c:k2+c]
	i3, v3 := idx[k3:k3+c], vals[k3:k3+c:k3+c]
	for j := range v0 {
		d0 += w[i0[j]] * v0[j]
		d1 += w[i1[j]] * v1[j]
		d2 += w[i2[j]] * v2[j]
		d3 += w[i3[j]] * v3[j]
	}
	for k := k0 + c; k < e0; k++ {
		d0 += w[idx[k]] * vals[k]
	}
	for k := k1 + c; k < e1; k++ {
		d1 += w[idx[k]] * vals[k]
	}
	for k := k2 + c; k < e2; k++ {
		d2 += w[idx[k]] * vals[k]
	}
	for k := k3 + c; k < e3; k++ {
		d3 += w[idx[k]] * vals[k]
	}
	return
}

// csrMargin turns one row's dot into (multiplier, loss), replicating
// the scalar Gradient.Compute arithmetic exactly.
func csrMargin(kind CSRGradKind, label, dot float64) (mult, loss float64) {
	switch kind {
	case CSRLogistic:
		margin := -dot
		mult = 1.0/(1.0+math.Exp(margin)) - label
		loss = Log1pExp(margin)
		if !(label > 0) {
			loss -= margin
		}
	case CSRLeastSquares:
		diff := dot - label
		mult = diff
		loss = diff * diff / 2
	case CSRHinge:
		scaled := 2*label - 1
		if 1-scaled*dot > 0 {
			// Active rows return -scaled (±1 for 0/1 labels — never +0,
			// which marks inactivity for the scatter skip).
			mult = -scaled
			loss = 1 - scaled*dot
		}
	}
	return
}

// hingeInactive reports whether a hinge multiplier marks an inactive
// row (exactly +0). The scalar path performs no Axpy at all for
// inactive rows, so the scatter must skip them rather than add zeros
// (0·v additions can flip -0 accumulator signs).
func hingeInactive(mult float64) bool {
	return mult == 0 && !math.Signbit(mult)
}

// csrScatterRow accumulates one row segment: cum[idx[k]] += mlt·vals[k]
// for k in [s, e). The 4-wide unroll is safe because indices within a
// row are strictly increasing — the four updates always hit distinct
// elements, so their store order is immaterial.
func csrScatterRow(idx []int32, vals, cum []float64, mlt float64, s, e int64) {
	ii, vv := idx[s:e], vals[s:e:e]
	j := 0
	for ; j+4 <= len(vv); j += 4 {
		j0, j1, j2, j3 := ii[j], ii[j+1], ii[j+2], ii[j+3]
		cum[j0] += mlt * vv[j]
		cum[j1] += mlt * vv[j+1]
		cum[j2] += mlt * vv[j+2]
		cum[j3] += mlt * vv[j+3]
	}
	for ; j < len(vv); j++ {
		cum[ii[j]] += mlt * vv[j]
	}
}

// csrSumRow accumulates one row segment without a multiplier:
// acc[base+idx[k]] += vals[k] (the KMeans center-sum scatter).
func csrSumRow(idx []int32, vals, acc []float64, base int, s, e int64) {
	ii, vv := idx[s:e], vals[s:e:e]
	j := 0
	for ; j+4 <= len(vv); j += 4 {
		j0, j1, j2, j3 := ii[j], ii[j+1], ii[j+2], ii[j+3]
		acc[base+int(j0)] += vv[j]
		acc[base+int(j1)] += vv[j+1]
		acc[base+int(j2)] += vv[j+2]
		acc[base+int(j3)] += vv[j+3]
	}
	for ; j < len(vv); j++ {
		acc[base+int(ii[j])] += vv[j]
	}
}
