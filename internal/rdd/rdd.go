package rdd

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"sparker/internal/sched"
)

// RDD is a partitioned, immutable, lazily evaluated dataset. Like
// Spark's, it is a driver-side recipe: Compute materializes one
// partition on an executor. Transformations are package functions
// (Map, MapPartitions, Derive) because Go methods cannot introduce
// type parameters.
//
// By default partition p is computed on executor p % NumExecutors (the
// scheduler's round-robin policy). Cached RDDs upgrade to sticky
// cache-aware placement; jobs that need a partition off its home
// executor (speculation, explicit placement) still work — blocks are
// fetched over the transport.
type RDD[T any] struct {
	ctx          *Context
	id           int64
	parts        int
	compute      func(ec *ExecContext, part int) ([]T, error)
	cached       atomic.Bool
	checkpointed atomic.Bool
	// policy, set by Cache, overrides the scheduler's default placement
	// for this RDD's action stages (boxed: atomic.Pointer needs one
	// concrete pointee type for the interface value).
	policy atomic.Pointer[policyBox]
	// ckptOwners records, per partition, the executor whose block store
	// holds the checkpoint bytes — the winner placement of the
	// checkpoint stage, which speculation may have moved off the
	// partition's home executor.
	ckptOwners atomic.Pointer[[]int]
	// ckptReplicas records, per partition, the executor holding the
	// buddy replica of the checkpoint bytes (-1: none). Replicas exist
	// so a partition survives its owner dying; the membership
	// reconfiguration hook re-establishes the invariant after churn.
	ckptReplicas atomic.Pointer[[]int]
	// ckptMu serializes checkpoint repair against itself (reconfiguration
	// hooks for back-to-back epochs).
	ckptMu sync.Mutex
	// ckptHook registers the repair hook once per RDD.
	ckptHook sync.Once
}

type policyBox struct{ p sched.PlacementPolicy }

// Context returns the owning driver context.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.parts }

// ID returns the RDD's unique id.
func (r *RDD[T]) ID() int64 { return r.id }

// Cache marks the RDD for MEMORY_ONLY storage: the first
// materialization of each partition is kept on its executor, and the
// RDD's placement upgrades to a cache-aware policy — later stages
// stick to wherever each partition is actually resident (which
// speculation may have moved), falling back to the previous placement
// for partitions not yet materialized. Returns r for chaining.
func (r *RDD[T]) Cache() *RDD[T] {
	r.cached.Store(true)
	fallback := r.PlacementPolicy()
	r.policy.Store(&policyBox{p: sched.NewCacheAware(r.locateCached, fallback)})
	return r
}

// locateCached reports which executor holds partition part's cached
// materialization, scanning the executors' cache maps driver-side (the
// engine runs in one process, so this is a map lookup, not an RPC).
func (r *RDD[T]) locateCached(part int) (int, bool) {
	if !r.cached.Load() {
		return 0, false
	}
	key := r.cacheKey(part)
	for i, e := range r.ctx.executorSnapshot() {
		if e != nil {
			if _, ok := e.cache.Load(key); ok {
				return i, true
			}
		}
	}
	return 0, false
}

// PlacementPolicy returns the RDD's effective policy, for a job over
// its partitions (JobSpec.Policy); nil means the scheduler default
// (round-robin).
func (r *RDD[T]) PlacementPolicy() sched.PlacementPolicy {
	if b := r.policy.Load(); b != nil {
		return b.p
	}
	return nil
}

// Unpersist drops the RDD's cached partitions from every executor and
// stops further caching. Later actions recompute from lineage.
func (r *RDD[T]) Unpersist() error {
	r.cached.Store(false)
	id := r.id
	_, err := r.ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		prefix := fmt.Sprintf("rdd/%d/", id)
		ec.exec.cache.Range(func(k, _ any) bool {
			if key, ok := k.(string); ok && strings.HasPrefix(key, prefix) {
				ec.exec.cache.Delete(k)
			}
			return true
		})
		return nil, nil
	})
	return err
}

func (r *RDD[T]) cacheKey(part int) string {
	return fmt.Sprintf("rdd/%d/%d", r.id, part)
}

// Materialize produces partition part on the calling executor,
// consulting and filling the cache when the RDD is cached.
func (r *RDD[T]) Materialize(ec *ExecContext, part int) ([]T, error) {
	if part < 0 || part >= r.parts {
		return nil, fmt.Errorf("rdd: partition %d out of range [0,%d)", part, r.parts)
	}
	if r.cached.Load() {
		if v, ok := ec.CacheGet(r.cacheKey(part)); ok {
			return v.([]T), nil
		}
	}
	var data []T
	var err error
	if r.checkpointed.Load() {
		data, err = r.readCheckpoint(ec, part)
	} else {
		data, err = r.compute(ec, part)
	}
	if err != nil {
		return nil, err
	}
	if r.cached.Load() {
		ec.CachePut(r.cacheKey(part), data)
	}
	return data, nil
}

// PlacementOf returns the executor index that would compute partition
// p under the RDD's effective placement policy and the installed
// membership epoch. The fallback is the cluster-wide owner math
// (Context.OwnerOf → membership.OwnerOf): with every slot alive it is
// exactly p % NumExecutors, with dead slots it cycles over survivors.
func (r *RDD[T]) PlacementOf(p int) int {
	slots := r.ctx.NumExecutors()
	if pol := r.PlacementPolicy(); pol != nil {
		view := sched.StageView{Tasks: r.parts, NumExecutors: slots, Alive: r.ctx.LiveExecutors()}
		if e := pol.Place(view, p); e >= 0 && e < slots {
			return e
		}
	}
	return r.ctx.OwnerOf(p)
}

func (r *RDD[T]) checkpointBlockID(part int) string {
	return fmt.Sprintf("ckpt/%d/%d", r.id, part)
}

// Checkpoint materializes every partition into its executor's block
// store and truncates lineage: later materializations read the stored
// bytes instead of recomputing ancestors — Spark's localCheckpoint,
// the other half of its fault-tolerance story. T must be
// serde-encodable.
func (r *RDD[T]) Checkpoint() error {
	h, err := r.ctx.SubmitJob(JobSpec{
		Tasks:  r.parts,
		Policy: r.PlacementPolicy(),
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			wire, err := encodeSlice(data)
			if err != nil {
				return nil, err
			}
			ec.Store.PutLocal(r.checkpointBlockID(task), wire)
			return nil, nil
		},
	})
	if err == nil {
		_, err = h.Wait()
	}
	if err != nil {
		return fmt.Errorf("rdd: checkpoint: %w", err)
	}
	// Remember where each partition's bytes actually landed: the winner
	// executor of each task, which speculation or cache-aware placement
	// may have moved off p % NumExecutors.
	owners := h.Executors()
	r.ckptOwners.Store(&owners)
	r.checkpointed.Store(true)
	// Buddy-replicate each partition so it survives its owner dying,
	// and keep the invariant alive across membership churn.
	if err := r.replicateCheckpoint(); err != nil {
		return fmt.Errorf("rdd: checkpoint replication: %w", err)
	}
	r.ckptHook.Do(r.installCkptRepairHook)
	return nil
}

// readCheckpoint loads a checkpointed partition (fetching across the
// transport when the task ran off the owning executor). Degraded
// paths, in order: the owner's primary block, the buddy replica, and
// finally lineage recomputation — the same ladder Spark's block
// replication + lineage story gives a lost cached partition.
func (r *RDD[T]) readCheckpoint(ec *ExecContext, part int) ([]T, error) {
	ownerExec := r.PlacementOf(part)
	if owners := r.ckptOwners.Load(); owners != nil &&
		part < len(*owners) && (*owners)[part] >= 0 {
		ownerExec = (*owners)[part]
	}
	owner := r.ctx.ExecutorStoreName(ownerExec)
	wire, err := ec.Store.FetchFrom(owner, r.checkpointBlockID(part))
	if err == nil {
		return decodeSlice[T](wire)
	}
	if rep := r.ckptReplicaOf(part); rep >= 0 && rep != ownerExec {
		wire, rerr := ec.Store.FetchFrom(r.ctx.ExecutorStoreName(rep), r.checkpointReplicaID(part))
		if rerr == nil {
			return decodeSlice[T](wire)
		}
	}
	// Last resort: the lineage is still attached (checkpointing here
	// truncates reads, not the recipe), so recompute the partition.
	data, cerr := r.compute(ec, part)
	if cerr != nil {
		return nil, fmt.Errorf("rdd: reading checkpoint of partition %d: %w (lineage recompute also failed: %v)", part, err, cerr)
	}
	return data, nil
}

// newRDD wires an RDD into ctx.
func newRDD[T any](ctx *Context, parts int, compute func(ec *ExecContext, part int) ([]T, error)) *RDD[T] {
	return &RDD[T]{ctx: ctx, id: ctx.newJobID(), parts: parts, compute: compute}
}

// Generate creates an RDD whose partitions are produced by gen. gen
// runs executor-side; it must be deterministic per partition so task
// retries observe identical data.
func Generate[T any](ctx *Context, parts int, gen func(part int) ([]T, error)) *RDD[T] {
	if parts < 1 {
		panic("rdd: Generate needs at least one partition")
	}
	return newRDD(ctx, parts, func(_ *ExecContext, part int) ([]T, error) {
		return gen(part)
	})
}

// FromSlice distributes data across parts partitions by contiguous
// ranges.
func FromSlice[T any](ctx *Context, data []T, parts int) *RDD[T] {
	if parts < 1 {
		panic("rdd: FromSlice needs at least one partition")
	}
	n := len(data)
	return newRDD(ctx, parts, func(_ *ExecContext, part int) ([]T, error) {
		lo := part * n / parts
		hi := (part + 1) * n / parts
		out := make([]T, hi-lo)
		copy(out, data[lo:hi])
		return out, nil
	})
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return newRDD(r.ctx, r.parts, func(ec *ExecContext, part int) ([]U, error) {
		in, err := r.Materialize(ec, part)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out, nil
	})
}

// Derive builds a partition-preserving RDD whose compute function
// sees the executor context and materializes the parent lazily. It is
// the hook for executor-aware transformations — f can consult the
// executor's block store or core budget, and skip parent
// materialization entirely when it can produce the partition from
// cached state (e.g. the packed-partition plan, which decodes a
// block-manager block zero-copy instead of re-packing the parent).
func Derive[T, U any](r *RDD[T], f func(ec *ExecContext, part int, parent func() ([]T, error)) ([]U, error)) *RDD[U] {
	return newRDD(r.ctx, r.parts, func(ec *ExecContext, part int) ([]U, error) {
		return f(ec, part, func() ([]T, error) { return r.Materialize(ec, part) })
	})
}

// MapPartitions applies f to each whole partition.
func MapPartitions[T, U any](r *RDD[T], f func(part int, in []T) ([]U, error)) *RDD[U] {
	return newRDD(r.ctx, r.parts, func(ec *ExecContext, part int) ([]U, error) {
		in, err := r.Materialize(ec, part)
		if err != nil {
			return nil, err
		}
		return f(part, in)
	})
}
