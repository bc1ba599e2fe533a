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
	"math/rand"
	"sync"
	"time"

	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
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
// every kernel pass).
func PackPoints(part, dim int, pts []LabeledPoint) (*linalg.CSRMatrix, error) {
	nnz := 0
	for i := range pts {
		nnz += len(pts[i].Features.Indices)
	}
	b := linalg.NewCSRBuilder(dim, len(pts), nnz)
	for i := range pts {
		if err := b.AppendRow(pts[i].Label, pts[i].Features.Indices, pts[i].Features.Values); err != nil {
			return nil, fmt.Errorf("mllib: packing partition %d point %d: %w", part, i, err)
		}
	}
	m, err := b.Build()
	if err != nil {
		return nil, err
	}
	m.Part = part
	return m, nil
}

// PackVectors packs one partition of unlabeled points (KMeans input)
// into a CSR matrix.
func PackVectors(part, dim int, xs []linalg.SparseVector) (*linalg.CSRMatrix, error) {
	nnz := 0
	for i := range xs {
		nnz += len(xs[i].Indices)
	}
	b := linalg.NewCSRBuilder(dim, len(xs), nnz)
	for i := range xs {
		if err := b.AppendRow(0, xs[i].Indices, xs[i].Values); err != nil {
			return nil, fmt.Errorf("mllib: packing partition %d point %d: %w", part, i, err)
		}
	}
	m, err := b.Build()
	if err != nil {
		return nil, err
	}
	m.Labels = nil
	m.Part = part
	return m, nil
}

// packedPart is the single element of each packed-RDD partition: the
// matrix plus the executor's registry for compute telemetry. One
// element per partition means core.Aggregate's per-element fold fires
// the fused kernel exactly once per partition.
type packedPart struct {
	M   *linalg.CSRMatrix
	Reg *metrics.Registry
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

// decodedViews caches the last zero-copy decode of each packed block.
// DecodeCSR itself is cheap, but a stored block is validated in full
// (Validate, O(nnz)) before the kernels may index by its column
// indices, and a caller that runs one training run per step would pay
// DecodeCSR + Validate over every partition every step. A hit is only
// valid while the store still returns the very same backing array the
// cached matrix aliases; an evicted-and-repacked block has a new array
// and falls through to a fresh decode. Capped crudely: the cache
// mirrors the block store's working set, so overflow just drops it.
var decodedViews struct {
	mu sync.Mutex
	m  map[string]decodedView
}

type decodedView struct {
	data *byte // &wire[0] of the decoded bytes
	n    int
	mat  *linalg.CSRMatrix
}

const decodedViewsCap = 256

func loadDecodedView(key string, wire []byte) (*linalg.CSRMatrix, bool) {
	decodedViews.mu.Lock()
	defer decodedViews.mu.Unlock()
	v, ok := decodedViews.m[key]
	if !ok || len(wire) != v.n || v.n == 0 || &wire[0] != v.data {
		return nil, false
	}
	return v.mat, true
}

func storeDecodedView(key string, wire []byte, m *linalg.CSRMatrix) {
	if len(wire) == 0 {
		return
	}
	decodedViews.mu.Lock()
	defer decodedViews.mu.Unlock()
	if decodedViews.m == nil || len(decodedViews.m) >= decodedViewsCap {
		decodedViews.m = make(map[string]decodedView)
	}
	decodedViews.m[key] = decodedView{data: &wire[0], n: len(wire), mat: m}
}

// materializePacked resolves one packed partition on the executor:
// block-store hit decodes zero-copy (the matrix arenas alias the stored
// bytes — safe because the store holds blocks by reference and never
// mutates them); miss packs from the parent partition, stores the wire
// bytes, and returns the zero-copy view of what was stored, so memory
// holds a single arena copy either way. Repeat hits on an unchanged
// block return the same *CSRMatrix without decoding or validating it
// again.
func materializePacked(ec *rdd.ExecContext, key string, pack func() (*linalg.CSRMatrix, error)) ([]packedPart, error) {
	if wire, ok := ec.Store.GetLocal(key); ok {
		if m, ok := loadDecodedView(key, wire); ok {
			return []packedPart{{M: m, Reg: ec.Registry}}, nil
		}
		// Stored bytes are validated in full once per decode (the decoded
		// view is cached): the kernels index the weight and accumulator
		// vectors by the stored column indices.
		if m, _, err := linalg.DecodeCSR(wire); err == nil && m.Validate() == nil {
			storeDecodedView(key, wire, m)
			return []packedPart{{M: m, Reg: ec.Registry}}, nil
		}
		// Unusable bytes (corrupt or from an older layout): repack.
	}
	m, err := pack()
	if err != nil {
		return nil, err
	}
	wire := linalg.AppendCSR(make([]byte, 0, m.EncodedSize()), m)
	ec.Store.PutLocal(key, wire)
	zc, _, err := linalg.DecodeCSR(wire)
	if err != nil {
		return nil, fmt.Errorf("mllib: re-decoding packed partition: %w", err)
	}
	storeDecodedView(key, wire, zc)
	return []packedPart{{M: zc, Reg: ec.Registry}}, nil
}

// newPackedPlan derives the packed RDD for labeled training data. The
// derived RDD is cached (iterations 2..N of this run reuse the live
// *CSRMatrix without touching the store), and the underlying blocks
// outlive the run as a durable pack cache.
func newPackedPlan(data *rdd.RDD[LabeledPoint], dim int) *packedPlan {
	id := data.ID()
	packed := rdd.Derive(data, func(ec *rdd.ExecContext, part int, parent func() ([]LabeledPoint, error)) ([]packedPart, error) {
		return materializePacked(ec, csrBlockKey(id, dim, part), func() (*linalg.CSRMatrix, error) {
			pts, err := parent()
			if err != nil {
				return nil, err
			}
			return PackPoints(part, dim, pts)
		})
	})
	return &packedPlan{packed: packed.Cache()}
}

// newPackedVecPlan is newPackedPlan for unlabeled (KMeans) input.
func newPackedVecPlan(points *rdd.RDD[linalg.SparseVector], dim int) *packedPlan {
	id := points.ID()
	packed := rdd.Derive(points, func(ec *rdd.ExecContext, part int, parent func() ([]linalg.SparseVector, error)) ([]packedPart, error) {
		return materializePacked(ec, csrBlockKey(id, dim, part), func() (*linalg.CSRMatrix, error) {
			xs, err := parent()
			if err != nil {
				return nil, err
			}
			return PackVectors(part, dim, xs)
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

// packedGradSeqOp builds the packed seqOp for one gradient iteration:
// sample rows (when frac < 1), run the fused kernel into the gradient
// prefix, and fold loss and count into the aggregator tail exactly as
// the per-point path does. The kernel's lossSum accumulates in row
// order starting from zero and every per-point loss is non-negative,
// so acc[dim] += lossSum lands bit-for-bit where the per-point
// acc[dim] += loss chain would.
func packedGradSeqOp(kind linalg.CSRGradKind, w []float64, dim int, frac float64, seed int64, iter int) func(acc []float64, pp packedPart) []float64 {
	return func(acc []float64, pp packedPart) []float64 {
		var rows []int32
		var rp *[]int32
		if frac < 1 {
			rp = samplePackedRows(pp.M, frac, seed, iter)
			rows = *rp
			if rows == nil {
				rows = []int32{}
			}
		}
		start := time.Now()
		lossSum, count := linalg.CSRGrad(kind, pp.M, rows, w, acc[:dim], 1)
		observeCompute(pp.Reg, time.Since(start), count)
		if rp != nil {
			putSampledRows(rp)
		}
		acc[dim] += lossSum
		acc[dim+1] += count
		return acc
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
