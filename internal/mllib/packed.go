package mllib

// packed.go wires the linalg CSR compute plane into the optimizers:
// each data partition is packed once into a contiguous CSRMatrix,
// cached in the executor's block store under a key derived from the
// *data* RDD (stable across training runs), and folded through the
// fused single-pass kernels instead of the per-point Gradient.Compute
// closure. The fused kernels are property-tested bitwise-identical to
// the sequential per-point fold, so flipping Packed never changes a
// training result — only how fast it arrives. Each task runs its
// kernel on its own core; the executor's cores are its task slots.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"time"

	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/serde"
)

// PackedMode selects whether training folds through packed CSR
// partitions (the fused compute plane) or the per-point closure path.
type PackedMode int

const (
	// PackedAuto (the default) uses the packed path whenever a fused
	// kernel exists for the model — logistic, least-squares and hinge
	// gradients, and KMeans. Custom Gradient implementations fall back
	// to the per-point fold silently.
	PackedAuto PackedMode = iota
	// PackedOn requires the packed path; training fails fast when no
	// fused kernel matches the model (surfacing the misconfiguration
	// instead of silently running slow).
	PackedOn
	// PackedOff forces the per-point closure fold.
	PackedOff
)

// String implements fmt.Stringer.
func (p PackedMode) String() string {
	switch p {
	case PackedAuto:
		return "auto"
	case PackedOn:
		return "on"
	case PackedOff:
		return "off"
	default:
		return fmt.Sprintf("PackedMode(%d)", int(p))
	}
}

// packedKind maps a Gradient implementation to its fused kernel, if
// one exists.
func packedKind(g Gradient) (linalg.CSRGradKind, bool) {
	switch g.(type) {
	case LogisticGradient, *LogisticGradient:
		return linalg.CSRLogistic, true
	case LeastSquaresGradient, *LeastSquaresGradient:
		return linalg.CSRLeastSquares, true
	case HingeGradient, *HingeGradient:
		return linalg.CSRHinge, true
	default:
		return 0, false
	}
}

// PackPoints packs one partition of labeled points into a CSR matrix
// with column dimensionality dim (the weight vector's length — packing
// validates every feature index against it up front, once, instead of
// every kernel pass): the zero-copy view of packPoints' block.
func PackPoints(part, dim int, pts []LabeledPoint) (*linalg.CSRMatrix, error) {
	block, err := packPoints(part, dim, pts)
	if err != nil {
		return nil, err
	}
	m, _, err := linalg.DecodeCSR(block)
	return m, err
}

// packPoints writes one partition of labeled points straight into the
// block the executor stores (linalg.PackCSRBlock).
func packPoints(part, dim int, pts []LabeledPoint) ([]byte, error) {
	return packBlock(part, dim, len(pts), true, func(r int) (float64, []int32, []float64) {
		return pts[r].Label, pts[r].Features.Indices, pts[r].Features.Values
	})
}

// packVectors is packPoints for unlabeled points (KMeans input).
func packVectors(part, dim int, xs []linalg.SparseVector) ([]byte, error) {
	return packBlock(part, dim, len(xs), false, func(r int) (float64, []int32, []float64) {
		return 0, xs[r].Indices, xs[r].Values
	})
}

// packBlock counts the rows' entries and packs them with
// linalg.PackCSRBlock, naming the point it refuses.
func packBlock(part, dim, rows int, labeled bool, row func(int) (float64, []int32, []float64)) ([]byte, error) {
	nnz := 0
	for r := 0; r < rows; r++ {
		_, indices, _ := row(r)
		nnz += len(indices)
	}
	block, bad, err := linalg.PackCSRBlock(part, dim, rows, nnz, labeled, row)
	if err != nil {
		return nil, fmt.Errorf("mllib: packing partition %d point %d: %w", part, bad, err)
	}
	return block, nil
}

// packedPart is the single element of each packed-RDD partition: the
// matrix plus the executor's registry for compute telemetry. One
// element per partition means core.Aggregate's per-element fold fires
// the fused kernel exactly once per partition. Support, for labeled
// partitions, is the support of the partition's gradient aggregator
// (gradSupport); callers read it and never write it.
type packedPart struct {
	M       *linalg.CSRMatrix
	Reg     *metrics.Registry
	Support []uint64
	Cols    *colDict // with Support: the block's column dictionary, built on demand
}

// colDict is a labeled block's column dictionary: the support's columns
// (gradSupport's set bits below dim) and the block re-indexed into them
// (linalg.CompactColumns), the column space a task of any strategy
// folds the block in (packedGrad.fold). It is built by the first fold
// that asks, and kept with the decoded view, so a block pays its
// O(nnz + dim/64) once. A block storing more than half of dim's columns
// gets none (the ½ rule of the packed form, which a frame encoded from
// its support could not meet) and folds densely.
type colDict struct {
	once  sync.Once
	local *linalg.CSRMatrix // nil: not built, or the block does not qualify
	cols  []int32
}

// get returns the dictionary of block m with gradient support sup,
// building it on the first call; local is nil when m does not qualify.
func (d *colDict) get(m *linalg.CSRMatrix, sup []uint64) (local *linalg.CSRMatrix, cols []int32) {
	d.once.Do(func() {
		distinct := -2 // sup's two tail bits are no columns
		for _, w := range sup {
			distinct += bits.OnesCount64(w)
		}
		if 2*distinct <= m.Dim {
			d.local, d.cols = linalg.CompactColumns(m, sup)
		}
	})
	return d.local, d.cols
}

// gradSupport is the support of a gradient aggregator folded over m
// (layout [0,dim) gradient, [dim] loss, [dim+1] count): every column a
// row of m stores, plus the two tail elements — what packedGrad.seqOp can
// change, for a full pass or any sample of rows. One O(nnz) pass per
// decoded block; m must be valid.
func gradSupport(m *linalg.CSRMatrix) []uint64 {
	sup := make([]uint64, serde.PackedWords(m.Dim+2))
	for _, j := range m.Indices {
		sup[j>>6] |= 1 << uint(j&63)
	}
	for j := m.Dim; j < m.Dim+2; j++ {
		sup[j>>6] |= 1 << uint(j&63)
	}
	return sup
}

// packedPlan is one training run's handle on the packed dataset.
type packedPlan struct {
	packed *rdd.RDD[packedPart]
}

// csrBlockKey names the durable block holding a packed partition. It is
// keyed by the DATA RDD's id (not the packed RDD's, which is fresh per
// run) and the packing dimensionality, so every training run over the
// same cached dataset at the same dim reuses the bytes.
func csrBlockKey(dataID int64, dim, part int) string {
	return fmt.Sprintf("csr/%d/%d/%d", dataID, dim, part)
}

// decodedViews caches the last zero-copy decode of each packed block,
// and the block's gradient support and column dictionary beside it.
// DecodeCSR itself is cheap, but a stored block is validated in full
// (Validate, O(nnz)) before the kernels may index by its column
// indices, and a caller that runs one training run per step would pay
// DecodeCSR + Validate (and gradSupport) over every partition every
// step. A hit is only valid while the store still returns the very same
// backing array the cached matrix aliases; an evicted-and-repacked
// block has a new array and falls through to a fresh decode, and its
// support and dictionary go with the old entry. Capped crudely: the
// cache mirrors the block store's working set, so overflow just drops
// it.
var decodedViews struct {
	mu sync.Mutex
	m  map[string]decodedView
}

type decodedView struct {
	data *byte // &wire[0] of the decoded bytes
	n    int
	mat  *linalg.CSRMatrix
	sup  []uint64 // gradSupport(mat) for a labeled plan's block, else nil
	cols *colDict // with sup
}

const decodedViewsCap = 256

func loadDecodedView(key string, wire []byte) (decodedView, bool) {
	decodedViews.mu.Lock()
	defer decodedViews.mu.Unlock()
	v, ok := decodedViews.m[key]
	if !ok || len(wire) != v.n || v.n == 0 || &wire[0] != v.data {
		return decodedView{}, false
	}
	return v, true
}

func storeDecodedView(key string, wire []byte, m *linalg.CSRMatrix, sup []uint64, cols *colDict) {
	if len(wire) == 0 {
		return
	}
	decodedViews.mu.Lock()
	defer decodedViews.mu.Unlock()
	if decodedViews.m == nil || len(decodedViews.m) >= decodedViewsCap {
		decodedViews.m = make(map[string]decodedView)
	}
	decodedViews.m[key] = decodedView{data: &wire[0], n: len(wire), mat: m, sup: sup, cols: cols}
}

// materializePacked resolves one packed partition on the executor:
// block-store hit decodes zero-copy (the matrix arenas alias the stored
// bytes — safe because the store holds blocks by reference and never
// mutates them); miss packs the parent partition straight into a block
// (pack), stores it, and returns the zero-copy view of what was stored,
// so memory holds a single arena copy either way. Repeat hits on an
// unchanged block return the same *CSRMatrix without decoding or
// validating it again. With withSupport the partition carries its gradSupport,
// computed once per decoded block and cached with the view, and the
// block's column dictionary, cached with it and built on demand.
func materializePacked(ec *rdd.ExecContext, key string, withSupport bool, pack func() ([]byte, error)) ([]packedPart, error) {
	view := func(wire []byte, m *linalg.CSRMatrix) []packedPart {
		var sup []uint64
		var cols *colDict
		if withSupport {
			sup, cols = gradSupport(m), new(colDict)
		}
		storeDecodedView(key, wire, m, sup, cols)
		return []packedPart{{M: m, Reg: ec.Registry, Support: sup, Cols: cols}}
	}
	if wire, ok := ec.Store.GetLocal(key); ok {
		if v, ok := loadDecodedView(key, wire); ok && (v.sup != nil || !withSupport) {
			return []packedPart{{M: v.mat, Reg: ec.Registry, Support: v.sup, Cols: v.cols}}, nil
		}
		// Stored bytes are validated in full once per decode (the decoded
		// view is cached): the kernels index the weight and accumulator
		// vectors by the stored column indices.
		if m, _, err := linalg.DecodeCSR(wire); err == nil && m.Validate() == nil {
			return view(wire, m), nil
		}
		// Unusable bytes (corrupt or from an older layout): repack.
	}
	wire, err := pack()
	if err != nil {
		return nil, err
	}
	ec.Store.PutLocal(key, wire)
	zc, _, err := linalg.DecodeCSR(wire)
	if err != nil {
		return nil, fmt.Errorf("mllib: re-decoding packed partition: %w", err)
	}
	return view(wire, zc), nil
}

// newPackedPlan derives the packed RDD for labeled training data. The
// derived RDD is cached (iterations 2..N of this run reuse the live
// *CSRMatrix without touching the store), and the underlying blocks
// outlive the run as a durable pack cache.
func newPackedPlan(data *rdd.RDD[LabeledPoint], dim int) *packedPlan {
	id := data.ID()
	packed := rdd.Derive(data, func(ec *rdd.ExecContext, part int, parent func() ([]LabeledPoint, error)) ([]packedPart, error) {
		return materializePacked(ec, csrBlockKey(id, dim, part), true, func() ([]byte, error) {
			pts, err := parent()
			if err != nil {
				return nil, err
			}
			return packPoints(part, dim, pts)
		})
	})
	return &packedPlan{packed: packed.Cache()}
}

// newPackedVecPlan is newPackedPlan for unlabeled (KMeans) input.
func newPackedVecPlan(points *rdd.RDD[linalg.SparseVector], dim int) *packedPlan {
	id := points.ID()
	packed := rdd.Derive(points, func(ec *rdd.ExecContext, part int, parent func() ([]linalg.SparseVector, error)) ([]packedPart, error) {
		return materializePacked(ec, csrBlockKey(id, dim, part), false, func() ([]byte, error) {
			xs, err := parent()
			if err != nil {
				return nil, err
			}
			return packVectors(part, dim, xs)
		})
	})
	return &packedPlan{packed: packed.Cache()}
}

// release drops the run's live packed-partition objects from the
// executors' RDD caches. The encoded blocks stay in the block stores —
// they are the cross-run pack cache; the next run over the same data
// re-materializes them with a zero-copy decode instead of a re-pack.
func (p *packedPlan) release() {
	if p != nil {
		_ = p.packed.Unpersist()
	}
}

// rowIDPool recycles minibatch row-index scratch across iterations —
// the packed replacement for sampleRDD's fresh per-iteration
// []LabeledPoint slices.
var rowIDPool = sync.Pool{New: func() any { return new([]int32) }}

// samplePackedRows selects minibatch rows by index over a packed
// partition, replaying sampleRDD's exact RNG stream (same source seed
// per (seed, iter, partition), one Float64 draw per row in row order)
// so packed and per-point minibatches select identical points. The
// returned slice is never nil (an empty selection must not read as
// "all rows" to the kernel); return it with putSampledRows.
func samplePackedRows(m *linalg.CSRMatrix, frac float64, seed int64, iter int) *[]int32 {
	rp := rowIDPool.Get().(*[]int32)
	rows := (*rp)[:0]
	rng := rand.New(rand.NewSource(seed ^ int64(iter)*1_000_003 ^ int64(m.Part)*7_777_777))
	n := m.Rows()
	for r := 0; r < n; r++ {
		if rng.Float64() < frac {
			rows = append(rows, int32(r))
		}
	}
	*rp = rows
	return rp
}

func putSampledRows(rp *[]int32) { rowIDPool.Put(rp) }

// observeCompute records one fused map pass into the executor's
// registry: kernel latency into the map-phase histogram and the
// per-pass throughput gauge.
func observeCompute(reg *metrics.Registry, elapsed time.Duration, points float64) {
	if reg == nil {
		return
	}
	ns := elapsed.Nanoseconds()
	reg.Histogram(metrics.HistComputeMapNS).Observe(ns)
	if ns > 0 {
		reg.Gauge(metrics.GaugeComputePointsPerSec).Set(int64(points * 1e9 / float64(ns)))
	}
}

// packedGrad is one gradient evaluation over a packed plan: the
// weights it is taken at, and the minibatch it folds (frac < 1: the rows
// samplePackedRows draws for iter). Aggregator layout: [0,dim) gradient
// sum, [dim] loss sum, [dim+1] sample count.
type packedGrad struct {
	kind linalg.CSRGradKind
	w    []float64
	dim  int
	frac float64
	seed int64
	iter int
}

// pass runs the fused kernel over pp's rows — all of them, or the
// minibatch samplePackedRows draws from pp.M — as stored in m (pp.M, or
// its re-indexing) against w into cum, and records it in pp's registry.
func (g packedGrad) pass(pp packedPart, m *linalg.CSRMatrix, w, cum []float64) (lossSum, count float64) {
	var rows []int32
	if g.frac < 1 {
		rp := samplePackedRows(pp.M, g.frac, g.seed, g.iter)
		defer putSampledRows(rp)
		if rows = *rp; rows == nil {
			rows = []int32{} // an empty sample is not "all rows"
		}
	}
	start := time.Now()
	lossSum, count = linalg.CSRGrad(g.kind, m, rows, w, cum, 1)
	observeCompute(pp.Reg, time.Since(start), count)
	return lossSum, count
}

// seqOp runs the fused kernel into the gradient prefix and folds loss
// and count into the aggregator tail exactly as the per-point path
// does. The kernel's lossSum accumulates in row order starting from
// zero and every per-point loss is non-negative, so acc[dim] += lossSum
// lands bit-for-bit where the per-point acc[dim] += loss chain would.
func (g packedGrad) seqOp(acc []float64, pp packedPart) []float64 {
	lossSum, count := g.pass(pp, pp.M, g.w, acc[:g.dim])
	acc[g.dim] += lossSum
	acc[g.dim+1] += count
	return acc
}

// fold is seqOp from Zero for a task's one packed partition
// (core.AggFuncs.Fold), in the block's own column space: w gathered at
// the column dictionary, the same kernel over the re-indexed block into a
// compact accumulator of the support's len(cols)+2 elements, appended to
// dst — in support order, the values the dense accumulator holds at its
// set bits, loss and count last. Every element sees the same operations
// in the same order as in seqOp. It declines, and the task folds
// densely, for a partition without a dictionary (the ½ rule).
func (g packedGrad) fold(dst []float64, elems []packedPart) ([]float64, int, bool, error) {
	if len(elems) != 1 || elems[0].Cols == nil {
		return dst, 0, false, nil
	}
	pp := elems[0]
	local, cols := pp.Cols.get(pp.M, pp.Support)
	if local == nil {
		return dst, 0, false, nil
	}
	n := len(cols)
	w := getLocalVec(n)
	for k, j := range cols {
		w[k] = g.w[j]
	}
	at := len(dst)
	acc := slices.Grow(dst, n+2)[:at+n+2]
	clear(acc[at:])
	lossSum, count := g.pass(pp, local, w, acc[at:at+n])
	acc[at+n] += lossSum
	acc[at+n+1] += count
	putLocalVec(w)
	return acc, g.dim + 2, true, nil
}

// localVecs parks the compact fold's gathered weights between steps — a
// free list for linalg's vecFree reason (a GC'd pool would hand back
// fresh memory most steps). Its vectors hold a block's column count,
// which differs a little from block to block, so any vector long enough
// serves, and each is made with some headroom. The list holds the
// vector of each of four concurrent tasks.
var localVecs = make(chan []float64, 4)

// getLocalVec returns a vector of length n, not cleared.
func getLocalVec(n int) []float64 {
	select {
	case v := <-localVecs:
		if cap(v) >= n {
			return v[:n]
		}
	default:
	}
	return make([]float64, n, n+n/8)
}

// putLocalVec parks v for a later getLocalVec.
func putLocalVec(v []float64) {
	select {
	case localVecs <- v:
	default:
	}
}

// packedKMeansSeqOp builds the packed seqOp for one Lloyd iteration
// over flattened centers. Center norms are precomputed once per
// iteration with the same arithmetic sequence the scalar sqDist uses,
// so assignments and costs match the per-point path bit for bit.
func packedKMeansSeqOp(centers, cNorms []float64, k, dim int) func(acc []float64, pp packedPart) []float64 {
	return func(acc []float64, pp packedPart) []float64 {
		start := time.Now()
		linalg.CSRKMeans(pp.M, centers, cNorms, k, dim, acc)
		observeCompute(pp.Reg, time.Since(start), float64(pp.M.Rows()))
		return acc
	}
}
