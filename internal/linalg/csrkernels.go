package linalg

// Fused batched kernels over packed CSR partitions. Each kernel
// replaces the per-point Gradient.Compute fold (interface call + Dot +
// Axpy per point) with streaming passes over the arenas, and its
// result is bitwise identical to that sequential fold for every worker
// count. Two properties make that possible:
//
//  1. Per-row work (the margin dot, the multiplier, the loss) uses the
//     exact accumulation order of the scalar path, and rows are
//     independent — so rows can be row-sharded across cores, and the
//     4-wide dot batching below only interleaves *independent* chains
//     for instruction-level parallelism without reassociating any sum.
//  2. Accumulator updates (cum[j] += mult·v, the loss fold, counts)
//     form one chain per element in row order. The multi-core scatter
//     shards by *column*: a worker owns a contiguous (nnz-balanced)
//     column range, so each cum[j] still receives its contributions in
//     exactly the sequential order — sharding decides only which core
//     executes a chain, never the order within it. Full-batch passes
//     walk the matrix's cached column view (entries grouped by column,
//     ascending row order within a column — the fold order; only the
//     non-empty columns are present), so phase B is O(nnz) total
//     however wide the matrix; sampled passes walk per-row segment
//     bounds instead.
//
// Per-core partial accumulators merged afterwards would NOT have this
// property (float addition is not associative across a shard
// boundary), which is why the scatter is column-sharded instead. The
// in-row scatter unrolling is safe for the same reason batched dots
// are: indices within a row are strictly increasing, so the four
// unrolled updates always hit distinct accumulator elements.
//
// Steady-state kernel calls are allocation-free: scratch (per-row
// multipliers, shard cuts) is pooled, the per-worker column segment
// bounds are cached on the matrix, and the ParallelFor shard bodies
// are prebuilt method values bound to the scratch, so dispatch reuses
// the same closures call after call (the `make overhead` packed gate).

import (
	"math"
	"slices"
)

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

// csrParallelMinRows: below this many rows the two-phase parallel path
// costs more in pool dispatch than it saves; fall back to the fused
// single pass. Purely a performance cutoff — both paths are bitwise
// identical.
const csrParallelMinRows = 64

// CSRGrad folds one fused gradient pass over m against weights w,
// accumulating the gradient sum into cum (len >= m.Dim; must not alias
// w) and returning the loss sum and the sample count. rows selects a
// sampled row subset in fold order (nil: all rows). workers > 1 shards
// the margin phase by rows and the scatter phase by columns across the
// ParallelFor pool. The result — cum, loss sum, and count — is bitwise
// identical to folding grad.Compute over the same rows sequentially,
// for any workers value. m must be labeled (Labels non-nil) unless it
// has no rows.
func CSRGrad(kind CSRGradKind, m *CSRMatrix, rows []int32, w, cum []float64, workers int) (lossSum, count float64) {
	n := m.Rows()
	if rows != nil {
		n = len(rows)
	}
	if n == 0 {
		return 0, 0
	}
	if workers > maxParallelWorkers {
		workers = maxParallelWorkers
	}
	// Full-batch passes take the two-phase path even at one worker: the
	// CSC scatter streams its entries contiguously with the accumulator
	// in a register, which beats the fused pass's random cum[idx] writes
	// once the batch is large — and with workers == 1 ParallelFor is a
	// plain call, so there is no pool traffic to pay for. Sampled
	// subsets and small batches keep the fused single pass.
	if n < csrParallelMinRows || (workers <= 1 && rows != nil) {
		return csrGradSeq(kind, m, rows, w, cum), float64(n)
	}
	if workers < 1 {
		workers = 1
	}
	// Phase B's sharding state, cached on the matrix after the first
	// call: the column view for full-batch passes — each worker touches
	// only the entries of its own nnz-balanced column range — and
	// per-row segment bounds for sampled ones (the view has no cheap row
	// filter). A matrix that can have neither folds sequentially.
	var view *colView
	var segBounds []int32
	if rows == nil {
		view = m.cscView()
	} else {
		segBounds = m.colSegments(workers)
	}
	if view == nil && segBounds == nil {
		return csrGradSeq(kind, m, rows, w, cum), float64(n)
	}
	sc := getCSRScratch(n)
	sc.kind, sc.m, sc.rows, sc.w, sc.cum = kind, m, rows, w, cum
	sc.n = n
	if workers == 1 {
		// One worker covers the whole batch in row order, so the loss
		// can fold inline with the margin pass — same order as the
		// scalar fold's acc[dim] += loss per point — instead of taking
		// a round-trip through the loss array (an extra 2n×8 bytes of
		// traffic per pass).
		lossSum = sc.marginRangeFold(0, n)
	} else {
		sc.rowCuts = m.rowCutsInto(sc.rowCuts, rows, n, workers)
		// Phase A: per-row multiplier + loss, row-sharded. Every per-row
		// value is independent of the sharding.
		ParallelFor(workers, workers, sc.marginBody)
		// Loss and count fold sequentially in row order, matching
		// acc[dim] += loss; acc[dim+1]++ per point.
		loss := sc.loss[:n]
		for i := range loss {
			lossSum += loss[i]
		}
	}
	// Phase B: column-sharded scatter.
	if view != nil {
		sc.colCuts = view.cutsInto(sc.colCuts, workers)
		ParallelFor(workers, workers, sc.cscScatterBody)
	} else {
		sc.segBounds = segBounds
		ParallelFor(workers, workers, sc.scatterBody)
	}
	putCSRScratch(sc)
	return lossSum, float64(n)
}

// CSRKMeans assigns every row of m to its nearest center and
// accumulates the per-center sums, counts and total cost into acc
// (layout [k*dim) sums, [k*dim,k*dim+k) counts, [k*dim+k] cost —
// TrainKMeans's aggregator). centers is the k×dim row-major flattened
// snapshot; cNorms[c] must equal the sequential self-dot of center c
// (CSRKMeansCenterNorms). Bitwise identical to folding the sequential
// nearest-center seqOp over the rows, for any workers value.
func CSRKMeans(m *CSRMatrix, centers, cNorms []float64, k, dim int, acc []float64, workers int) {
	n := m.Rows()
	if n == 0 || k == 0 {
		return
	}
	if workers > maxParallelWorkers {
		workers = maxParallelWorkers
	}
	var view *colView
	if workers > 1 && n >= csrParallelMinRows {
		view = m.cscView()
	}
	if view == nil {
		csrKMeansSeq(m, centers, cNorms, k, dim, acc)
		return
	}
	sc := getCSRScratch(n)
	sc.m, sc.centers, sc.cNorms = m, centers, cNorms
	sc.k, sc.dim, sc.acc = k, dim, acc
	sc.n = n
	sc.rowCuts = m.rowCutsInto(sc.rowCuts, nil, n, workers)
	// Phase A: per-row nearest center, row-sharded.
	ParallelFor(workers, workers, sc.assignBody)
	// Counts and cost fold sequentially in row order.
	best, dist := sc.best[:n], sc.dist[:n]
	for i := 0; i < n; i++ {
		acc[k*dim+int(best[i])]++
		acc[k*dim+k] += dist[i]
	}
	// Phase B: column-sharded sum scatter over the column view.
	sc.colCuts = view.cutsInto(sc.colCuts, workers)
	ParallelFor(workers, workers, sc.cscKMScatterBody)
	putCSRScratch(sc)
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

// --- pooled scratch ---------------------------------------------------

// csrScratch carries the per-call state of one parallel kernel
// invocation. The shard bodies are method values created once per
// scratch and reused, keeping steady-state dispatch allocation-free.
type csrScratch struct {
	mult    []float64
	loss    []float64
	best    []int32
	dist    []float64
	rowCuts []int
	colCuts []int32

	// pinned call state read by the shard bodies
	kind      CSRGradKind
	m         *CSRMatrix
	rows      []int32
	w, cum    []float64
	centers   []float64
	cNorms    []float64
	acc       []float64
	k, dim    int
	n         int
	segBounds []int32

	marginBody       func(lo, hi int)
	scatterBody      func(lo, hi int)
	cscScatterBody   func(lo, hi int)
	assignBody       func(lo, hi int)
	cscKMScatterBody func(lo, hi int)
}

// csrScratchFree is a small GC-proof free list. A sync.Pool is wrong
// here: GC strips pools every cycle, and a training loop allocates
// enough per iteration (task closures, reduce buffers) to keep GC
// ticking — so the mult/loss arrays (hundreds of KB for a 100k-row
// partition) would be refaulted and rezeroed almost every call, an
// overhead the sequential path doesn't pay. The channel's capacity
// bounds retention to a handful of scratches, the same order as one
// cached packed partition.
var csrScratchFree = make(chan *csrScratch, 8)

func newCSRScratch() *csrScratch {
	sc := &csrScratch{}
	sc.marginBody = sc.runMargins
	sc.scatterBody = sc.runScatter
	sc.cscScatterBody = sc.runCSCScatter
	sc.assignBody = sc.runAssign
	sc.cscKMScatterBody = sc.runCSCKMScatter
	return sc
}

func getCSRScratch(n int) *csrScratch {
	var sc *csrScratch
	select {
	case sc = <-csrScratchFree:
	default:
		sc = newCSRScratch()
	}
	if cap(sc.mult) < n {
		sc.mult = make([]float64, n)
		sc.loss = make([]float64, n)
		sc.best = make([]int32, n)
		sc.dist = make([]float64, n)
	}
	return sc
}

func putCSRScratch(sc *csrScratch) {
	sc.clear()
	select {
	case csrScratchFree <- sc:
	default:
	}
}

// vecFree is the same GC-proof free list for dense accumulator vectors:
// a split-aggregation step needs one aggregator-sized []float64 per
// partition, and a training loop asks for the same size every step.
// Capacity bounds retention to a few vectors per in-process executor.
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

// clear drops the pinned references so pooled scratch does not retain
// partitions or weight snapshots.
func (sc *csrScratch) clear() {
	sc.m, sc.rows, sc.w, sc.cum = nil, nil, nil, nil
	sc.centers, sc.cNorms, sc.acc = nil, nil, nil
	sc.segBounds = nil
}

// --- gradient margins (phase A) ---------------------------------------

// runMargins computes mult[i], loss[i] for the row shards [lo, hi)
// (shard ids; each covers fold positions rowCuts[s]:rowCuts[s+1]).
func (sc *csrScratch) runMargins(lo, hi int) {
	for s := lo; s < hi; s++ {
		sc.marginRange(sc.rowCuts[s], sc.rowCuts[s+1])
	}
}

// marginRange fills mult/loss for fold positions [lo, hi), batching
// dot products four rows at a time. Each row's dot keeps the scalar
// path's sequential order; batching only interleaves independent
// chains so the CPU pipelines them.
func (sc *csrScratch) marginRange(lo, hi int) {
	m, w := sc.m, sc.w
	offs, idx, vals, labs := m.RowOffsets, m.Indices, m.Values, m.Labels
	kind := sc.kind
	rows := sc.rows
	i := lo
	if rows == nil {
		for ; i+4 <= hi; i += 4 {
			d0, d1, d2, d3 := csrDots4(offs, idx, vals, w, i, i+1, i+2, i+3)
			sc.mult[i], sc.loss[i] = csrMargin(kind, labs[i], d0)
			sc.mult[i+1], sc.loss[i+1] = csrMargin(kind, labs[i+1], d1)
			sc.mult[i+2], sc.loss[i+2] = csrMargin(kind, labs[i+2], d2)
			sc.mult[i+3], sc.loss[i+3] = csrMargin(kind, labs[i+3], d3)
		}
		for ; i < hi; i++ {
			d := csrDot1(offs, idx, vals, w, i)
			sc.mult[i], sc.loss[i] = csrMargin(kind, labs[i], d)
		}
		return
	}
	for ; i+4 <= hi; i += 4 {
		r0, r1, r2, r3 := int(rows[i]), int(rows[i+1]), int(rows[i+2]), int(rows[i+3])
		d0, d1, d2, d3 := csrDots4(offs, idx, vals, w, r0, r1, r2, r3)
		sc.mult[i], sc.loss[i] = csrMargin(kind, labs[r0], d0)
		sc.mult[i+1], sc.loss[i+1] = csrMargin(kind, labs[r1], d1)
		sc.mult[i+2], sc.loss[i+2] = csrMargin(kind, labs[r2], d2)
		sc.mult[i+3], sc.loss[i+3] = csrMargin(kind, labs[r3], d3)
	}
	for ; i < hi; i++ {
		r := int(rows[i])
		d := csrDot1(offs, idx, vals, w, r)
		sc.mult[i], sc.loss[i] = csrMargin(kind, labs[r], d)
	}
}

// marginRangeFold is marginRange for a single worker owning the whole
// batch: it writes mult only and folds the loss inline, in row order —
// identical bits to writing loss[] and folding it afterwards, minus the
// array round-trip.
func (sc *csrScratch) marginRangeFold(lo, hi int) (lossSum float64) {
	m, w := sc.m, sc.w
	offs, idx, vals, labs := m.RowOffsets, m.Indices, m.Values, m.Labels
	kind := sc.kind
	rows := sc.rows
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0, r1, r2, r3 := i, i+1, i+2, i+3
		if rows != nil {
			r0, r1, r2, r3 = int(rows[i]), int(rows[i+1]), int(rows[i+2]), int(rows[i+3])
		}
		d0, d1, d2, d3 := csrDots4(offs, idx, vals, w, r0, r1, r2, r3)
		var l0, l1, l2, l3 float64
		sc.mult[i], l0 = csrMargin(kind, labs[r0], d0)
		sc.mult[i+1], l1 = csrMargin(kind, labs[r1], d1)
		sc.mult[i+2], l2 = csrMargin(kind, labs[r2], d2)
		sc.mult[i+3], l3 = csrMargin(kind, labs[r3], d3)
		lossSum += l0
		lossSum += l1
		lossSum += l2
		lossSum += l3
	}
	for ; i < hi; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		d := csrDot1(offs, idx, vals, w, r)
		var l float64
		sc.mult[i], l = csrMargin(kind, labs[r], d)
		lossSum += l
	}
	return lossSum
}

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
			// Active rows store -scaled (±1 for 0/1 labels — never +0,
			// which marks inactivity for the scatter skip).
			mult = -scaled
			loss = 1 - scaled*dot
		}
	}
	return
}

// hingeInactive reports whether a stored hinge multiplier marks an
// inactive row (exactly +0). The scalar path performs no Axpy at all
// for inactive rows, so the scatter must skip them rather than add
// zeros (0·v additions can flip -0 accumulator signs).
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

// --- gradient scatter (phase B) ---------------------------------------

// runCSCScatter accumulates cum[j] for the column shards [lo, hi) of a
// full-batch pass by walking the column view: each owned column's
// entries arrive in ascending row order — exactly the sequential fold
// order of that element's additions — and the worker reads nothing
// outside its own entry range, so phase B's total work is O(nnz) across
// all workers instead of O(workers × rows) row scans.
func (sc *csrScratch) runCSCScatter(lo, hi int) {
	view := sc.m.cscView()
	hinge := sc.kind == CSRHinge
	for s := lo; s < hi; s++ {
		cscLaneScatter(view, sc.mult, sc.cum, int(sc.colCuts[s]), int(sc.colCuts[s+1]), hinge)
	}
}

// cscLaneScatter folds the view's columns at positions [k0, k1) into
// cum. A column's additions are one dependent FP-add chain (the price
// of exact sequential order), so a heavy column alone runs at add
// latency — and power-law heads stack several heavy columns of very
// unequal lengths next to each other. The shard's columns are split
// into four contiguous lanes of roughly equal nnz, and the lanes are
// round-robined in small blocks: four *independent* chains are in
// flight at all times, whatever the per-column length mix (a plain
// 4-adjacent-column unroll pipelines only the common prefix, which a
// 20k-entry head column next to a 5k neighbor reduces to a quarter).
// Each column is still folded by exactly one lane strictly in
// ascending row order, so the result stays bitwise identical to the
// sequential pass.
func cscLaneScatter(v *colView, mult, cum []float64, k0, k1 int, hinge bool) {
	const lanes = 4
	// Block size balances per-block loop overhead against keeping all
	// four chains inside the out-of-order window at once.
	const block = 16
	if k0 >= k1 {
		return
	}
	cols, offs, rows, vals := v.cols, v.offs, v.rows, v.vals
	total := offs[k1] - offs[k0]
	var cut [lanes + 1]int
	cut[0], cut[lanes] = k0, k1
	for l := 1; l < lanes; l++ {
		// first position whose entry prefix reaches the lane's share
		at, _ := slices.BinarySearch(offs[cut[l-1]:k1], offs[k0]+total*int64(l)/lanes)
		cut[l] = cut[l-1] + at
	}
	var colK [lanes]int
	var pos, end [lanes]int64
	var acc [lanes]float64
	live := 0
	for l := 0; l < lanes; l++ {
		colK[l] = cut[l]
		if laneLoad(cols, offs, cum, colK[l], cut[l+1], &pos[l], &end[l], &acc[l]) {
			live++
		}
	}
	for live > 0 {
		for l := 0; l < lanes; l++ {
			p, e := pos[l], end[l]
			if p >= e {
				continue
			}
			b := p + block
			if b > e {
				b = e
			}
			acc[l] = cscColFold(rows, vals, mult, acc[l], p, b, hinge)
			pos[l] = b
			if b == e {
				cum[cols[colK[l]]] = acc[l]
				colK[l]++
				if !laneLoad(cols, offs, cum, colK[l], cut[l+1], &pos[l], &end[l], &acc[l]) {
					live--
				}
			}
		}
	}
}

// laneLoad loads the entry range and running accumulator of the column
// at position k — every position of the view is a non-empty column. It
// reports whether the lane still has work; a lane past endK parks with
// pos == end so the round-robin skips it.
func laneLoad(cols []int32, offs []int64, cum []float64, k, endK int, pos, end *int64, acc *float64) bool {
	if k >= endK {
		*pos, *end = 0, 0
		return false
	}
	*pos, *end, *acc = offs[k], offs[k+1], cum[cols[k]]
	return true
}

// cscColFold folds one column's entries [a, b) into acc in row order.
func cscColFold(rows []int32, vals, mult []float64, acc float64, a, b int64, hinge bool) float64 {
	rr, vv := rows[a:b], vals[a:b:b]
	if hinge {
		for t, r := range rr {
			if mlt := mult[r]; !hingeInactive(mlt) {
				acc += mlt * vv[t]
			}
		}
		return acc
	}
	for t, r := range rr {
		acc += mult[r] * vv[t]
	}
	return acc
}

// runScatter accumulates cum[j] for the column shards [lo, hi) of a
// sampled (minibatch) pass. Each shard walks the sampled rows in fold
// order and touches only its own entry segment (precomputed in m's
// segment-bound cache), so every accumulator element receives its
// additions in sequential row order.
func (sc *csrScratch) runScatter(lo, hi int) {
	m := sc.m
	idx, vals := m.Indices, m.Values
	cum := sc.cum
	hinge := sc.kind == CSRHinge
	nrows := m.Rows()
	for s := lo; s < hi; s++ {
		seg0 := sc.segBounds[s*nrows : (s+1)*nrows]
		seg1 := sc.segBounds[(s+1)*nrows : (s+2)*nrows]
		for i, n := 0, sc.n; i < n; i++ {
			mlt := sc.mult[i]
			if hinge && hingeInactive(mlt) {
				continue
			}
			r := sc.rows[i]
			csrScatterRow(idx, vals, cum, mlt, int64(seg0[r]), int64(seg1[r]))
		}
	}
}

// --- fused single pass (workers <= 1) ---------------------------------

// csrGradSeq is the fully fused single-core pass: batched margins, then
// the scatter of each row immediately after, while its entries are hot
// in cache. Scatters execute in row order, so the result matches the
// scalar fold bit for bit.
func csrGradSeq(kind CSRGradKind, m *CSRMatrix, rows []int32, w, cum []float64) (lossSum float64) {
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
	return lossSum
}

// --- kmeans -----------------------------------------------------------

// runAssign computes best[i], dist[i] for the row shards [lo, hi).
func (sc *csrScratch) runAssign(lo, hi int) {
	for s := lo; s < hi; s++ {
		sc.assignRange(sc.rowCuts[s], sc.rowCuts[s+1])
	}
}

// assignRange finds each row's nearest center with sqDist's exact
// arithmetic: d = cNorm − 2·dot + xNorm, clamped at 0, strict less
// keeping the lowest index on ties.
func (sc *csrScratch) assignRange(lo, hi int) {
	m := sc.m
	offs, idx, vals := m.RowOffsets, m.Indices, m.Values
	centers, cNorms := sc.centers, sc.cNorms
	k, dim := sc.k, sc.dim
	for r := lo; r < hi; r++ {
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
		sc.best[r] = int32(best)
		sc.dist[r] = bestDist
	}
}

// runCSCKMScatter accumulates the per-center sums for the column
// shards [lo, hi) over the column view: acc[best[r]·dim + j] += v for
// owned columns j. Entries within a column arrive in ascending row
// order, so each accumulator cell — a (center, column) pair, written
// only by the worker owning that column — receives its additions as
// the row-order subsequence the sequential fold would produce.
func (sc *csrScratch) runCSCKMScatter(lo, hi int) {
	v := sc.m.cscView()
	best := sc.best
	acc, dim := sc.acc, sc.dim
	for s := lo; s < hi; s++ {
		for k := int(sc.colCuts[s]); k < int(sc.colCuts[s+1]); k++ {
			j := int(v.cols[k])
			a, b := v.offs[k], v.offs[k+1]
			rr, vv := v.rows[a:b], v.vals[a:b:b]
			for t, r := range rr {
				acc[int(best[r])*dim+j] += vv[t]
			}
		}
	}
}

// csrKMeansSeq is the fused single-core KMeans pass: assignment and
// accumulation per row, in row order.
func csrKMeansSeq(m *CSRMatrix, centers, cNorms []float64, k, dim int, acc []float64) {
	offs, idx, vals := m.RowOffsets, m.Indices, m.Values
	n := m.Rows()
	for r := 0; r < n; r++ {
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
