package rdd

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"sparker/internal/trace"
)

func testContext(t *testing.T, execs, cores int) *Context {
	t.Helper()
	ctx, err := NewContext(Config{
		Name:             fmt.Sprintf("t-%s", t.Name()),
		NumExecutors:     execs,
		CoresPerExecutor: cores,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

func ints(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewContext(Config{NumExecutors: -1}); err == nil {
		t.Error("negative NumExecutors should fail")
	}
	if _, err := NewContext(Config{CoresPerExecutor: -2}); err == nil {
		t.Error("negative CoresPerExecutor should fail")
	}
	if _, err := NewContext(Config{NumExecutors: 2, Hosts: []string{"only-one"}}); err == nil {
		t.Error("host/executor count mismatch should fail")
	}
}

func TestCollectRoundTrip(t *testing.T) {
	ctx := testContext(t, 3, 2)
	data := ints(100)
	r := FromSlice(ctx, data, 7)
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, data) {
		t.Fatalf("Collect mismatch: got %d elems", len(got))
	}
}

func TestCollectEmptyPartitions(t *testing.T) {
	ctx := testContext(t, 2, 1)
	r := FromSlice(ctx, []int64{1, 2}, 5) // more partitions than elements
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("got %v", got)
	}
}

func TestMap(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r := FromSlice(ctx, ints(20), 4)
	got, err := Collect(Map(r, func(v int64) int64 { return v * 2 }))
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for i := int64(0); i < 20; i++ {
		want = append(want, i*2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMapPartitions(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r := FromSlice(ctx, ints(12), 3)
	sums := MapPartitions(r, func(part int, in []int64) ([]int64, error) {
		var s int64
		for _, v := range in {
			s += v
		}
		return []int64{s}, nil
	})
	got, err := Collect(sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d partition sums", len(got))
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != 66 {
		t.Fatalf("total %d, want 66", total)
	}
}

func TestCount(t *testing.T) {
	ctx := testContext(t, 3, 1)
	r := FromSlice(ctx, ints(137), 10)
	n, err := Count(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 137 {
		t.Fatalf("Count = %d", n)
	}
}

func TestCacheComputesOnce(t *testing.T) {
	ctx := testContext(t, 2, 2)
	var computations int64
	r := Generate(ctx, 4, func(part int) ([]int64, error) {
		atomic.AddInt64(&computations, 1)
		return []int64{int64(part)}, nil
	}).Cache()
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	first := atomic.LoadInt64(&computations)
	if first != 4 {
		t.Fatalf("first pass computed %d partitions", first)
	}
	for i := 0; i < 3; i++ {
		if _, err := Count(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt64(&computations); got != first {
		t.Fatalf("cached RDD recomputed: %d -> %d", first, got)
	}
}

func TestUncachedRecomputes(t *testing.T) {
	ctx := testContext(t, 2, 1)
	var computations int64
	r := Generate(ctx, 2, func(part int) ([]int64, error) {
		atomic.AddInt64(&computations, 1)
		return []int64{1}, nil
	})
	Count(r)
	Count(r)
	if got := atomic.LoadInt64(&computations); got != 4 {
		t.Fatalf("uncached RDD computed %d times, want 4", got)
	}
}

func TestTaskRetrySucceeds(t *testing.T) {
	ctx := testContext(t, 2, 2)
	var failures int64
	out, err := ctx.RunJob(JobSpec{
		Tasks: 4,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			if task == 2 && attempt == 0 {
				atomic.AddInt64(&failures, 1)
				return nil, fmt.Errorf("injected failure")
			}
			return []byte{byte(task)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d", failures)
	}
	for i, p := range out {
		if len(p) != 1 || int(p[0]) != i {
			t.Fatalf("task %d payload %v", i, p)
		}
	}
}

func TestTaskRetryExhausted(t *testing.T) {
	ctx := testContext(t, 2, 1)
	_, err := ctx.RunJob(JobSpec{
		Tasks: 1,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			return nil, fmt.Errorf("always fails")
		},
	})
	if err == nil {
		t.Fatal("job should fail after exhausting retries")
	}
}

func TestTaskPanicBecomesFailure(t *testing.T) {
	ctx := testContext(t, 2, 1)
	_, err := ctx.RunJob(JobSpec{
		Tasks: 1,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			panic("user code bug")
		},
	})
	if err == nil {
		t.Fatal("panicking task should fail the job, not the process")
	}
}

func TestStaticPlacement(t *testing.T) {
	ctx := testContext(t, 4, 1)
	placement := []int{3, 1, 2, 0}
	out, err := ctx.RunJob(JobSpec{
		Tasks:     4,
		Placement: placement,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			return []byte{byte(ec.ID)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for task, p := range out {
		if int(p[0]) != placement[task] {
			t.Fatalf("task %d ran on executor %d, want %d", task, p[0], placement[task])
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	ctx := testContext(t, 2, 1)
	_, err := ctx.RunJob(JobSpec{
		Tasks:     2,
		Placement: []int{0, 5},
		Fn:        func(ec *ExecContext, task, attempt int) ([]byte, error) { return nil, nil },
	})
	if err == nil {
		t.Fatal("out-of-range placement should fail")
	}
	_, err = ctx.RunJob(JobSpec{Tasks: 0, Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) { return nil, nil }})
	if err == nil {
		t.Fatal("zero tasks should fail")
	}
}

func TestWholeStageRetry(t *testing.T) {
	ctx := testContext(t, 2, 2)
	var cleanups, attempts int64
	out, err := ctx.RunJob(JobSpec{
		Tasks: 4,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			if attempt == 0 && task == 3 {
				atomic.AddInt64(&attempts, 1)
				return nil, fmt.Errorf("poisoned stage")
			}
			return []byte{byte(attempt)}, nil
		},
		StageCleanup: func(ec *ExecContext) error {
			atomic.AddInt64(&cleanups, 1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cleanups != int64(ctx.NumExecutors()) {
		t.Fatalf("cleanup ran %d times, want once per executor (%d)", cleanups, ctx.NumExecutors())
	}
	// Every surviving payload must come from the second stage attempt:
	// no partial results of attempt 0 leak through.
	for task, p := range out {
		if len(p) != 1 || p[0] != 1 {
			t.Fatalf("task %d returned attempt %v, want 1", task, p)
		}
	}
}

func TestWholeStageRetryExhausted(t *testing.T) {
	ctx := testContext(t, 2, 1)
	_, err := ctx.RunJob(JobSpec{
		Tasks: 2,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			return nil, fmt.Errorf("always poisoned")
		},
		StageCleanup: func(ec *ExecContext) error { return nil },
	})
	if err == nil {
		t.Fatal("stage should fail after maxStageAttempts")
	}
	if !errors.Is(err, ErrJobFailed) || errors.Is(err, ErrStageCleanup) {
		t.Fatalf("exhausted stage with clean cleanups: err = %v, want ErrJobFailed and not ErrStageCleanup", err)
	}
}

// TestStageCleanupFailureIsMarked: a reduced-result stage whose own
// cleanup job fails gives up at once — shared state may survive, so
// resubmitting would merge into it — and says so with ErrStageCleanup,
// the mark core.Aggregate reads to clear the leftovers itself.
func TestStageCleanupFailureIsMarked(t *testing.T) {
	exp := &trace.MemExporter{}
	ctx, err := NewContext(Config{Name: "stage-cleanup-fails", NumExecutors: 2, CoresPerExecutor: 1, Tracer: trace.New(exp)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	var lastAttempt atomic.Int64
	cleanupErr := errors.New("cleanup refused")
	_, err = ctx.RunJob(JobSpec{
		Tasks: 2,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			lastAttempt.Store(int64(attempt))
			return nil, fmt.Errorf("always poisoned")
		},
		StageCleanup: func(ec *ExecContext) error { return cleanupErr },
	})
	if !errors.Is(err, ErrStageCleanup) {
		t.Fatalf("err = %v, want ErrStageCleanup", err)
	}
	if n := lastAttempt.Load(); n != 0 {
		t.Fatalf("stage was resubmitted (attempt %d) after its cleanup failed", n)
	}
	// The reduced-result stage and its one cleanup job, parented on it.
	stages := exp.Named("stage")
	if len(stages) != 2 {
		t.Fatalf("%d stage spans, want the stage and its one cleanup job", len(stages))
	}
	cleanup, stage := stages[0], stages[1] // a stage span ends after its cleanup job
	if cleanup.ParentID != stage.SpanID {
		t.Fatalf("cleanup job's parent = %x, want the stage %x", cleanup.ParentID, stage.SpanID)
	}
}

func TestRunOnAllExecutors(t *testing.T) {
	ctx := testContext(t, 5, 1)
	out, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		return []byte{byte(ec.ID)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out {
		if int(p[0]) != i {
			t.Fatalf("slot %d got executor %d", i, p[0])
		}
	}
}

func TestTopologyRankAssignment(t *testing.T) {
	ctx, err := NewContext(Config{
		Name:         "topo",
		NumExecutors: 4,
		Hosts:        []string{"b", "a", "b", "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	// Ranks 0,1 must be the "a" executors (1 and 3), ranks 2,3 the "b"s.
	gotHosts := make([]string, 4)
	for rank := 0; rank < 4; rank++ {
		gotHosts[rank] = ctx.conf.Hosts[ctx.ExecutorOfRank(rank)]
	}
	if !sort.StringsAreSorted(gotHosts) {
		t.Fatalf("ring order not topology-sorted: %v", gotHosts)
	}
	for i := 0; i < 4; i++ {
		if ctx.ExecutorOfRank(ctx.RankOfExecutor(i)) != i {
			t.Fatal("rank mapping not a bijection")
		}
	}
}

func TestUnpersistRecomputes(t *testing.T) {
	ctx := testContext(t, 2, 1)
	var computations int64
	r := Generate(ctx, 2, func(part int) ([]int64, error) {
		atomic.AddInt64(&computations, 1)
		return []int64{int64(part)}, nil
	}).Cache()
	Count(r)
	Count(r) // cached: no recompute
	if got := atomic.LoadInt64(&computations); got != 2 {
		t.Fatalf("computed %d, want 2", got)
	}
	if err := r.Unpersist(); err != nil {
		t.Fatal(err)
	}
	Count(r) // must recompute
	if got := atomic.LoadInt64(&computations); got != 4 {
		t.Fatalf("after Unpersist computed %d, want 4", got)
	}
}

func TestCheckpointTruncatesLineage(t *testing.T) {
	ctx := testContext(t, 2, 2)
	var computations int64
	base := Generate(ctx, 4, func(part int) ([]int64, error) {
		atomic.AddInt64(&computations, 1)
		return []int64{int64(part * 10)}, nil
	})
	derived := Map(base, func(v int64) int64 { return v + 1 })
	if err := derived.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := atomic.LoadInt64(&computations)
	want, err := Collect(derived)
	if err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint actions must not touch the generator again.
	if got := atomic.LoadInt64(&computations); got != after {
		t.Fatalf("checkpointed RDD recomputed lineage: %d -> %d", after, got)
	}
	if !reflect.DeepEqual(want, []int64{1, 11, 21, 31}) {
		t.Fatalf("checkpointed data wrong: %v", want)
	}
	// Downstream transforms still work.
	doubled, err := Collect(Map(derived, func(v int64) int64 { return v * 2 }))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range doubled {
		sum += v
	}
	if sum != 128 {
		t.Fatalf("sum = %d, want 128", sum)
	}
	if got := atomic.LoadInt64(&computations); got != after {
		t.Fatal("downstream action recomputed lineage past the checkpoint")
	}
}

func TestContextCloseRejectsNewJobs(t *testing.T) {
	ctx, err := NewContext(Config{Name: "t-close", NumExecutors: 2, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := FromSlice(ctx, ints(10), 2)
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(r); err == nil {
		t.Fatal("action after Close should fail")
	}
	// Double close is safe.
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeOutOfRange(t *testing.T) {
	ctx := testContext(t, 2, 1)
	r := FromSlice(ctx, ints(4), 2)
	_, err := ctx.RunJob(JobSpec{
		Tasks: 1,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			if _, err := r.Materialize(ec, 99); err == nil {
				return nil, fmt.Errorf("out-of-range partition should fail")
			}
			if _, err := r.Materialize(ec, -1); err == nil {
				return nil, fmt.Errorf("negative partition should fail")
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGenerateErrorPropagates(t *testing.T) {
	ctx := testContext(t, 2, 1)
	r := Generate(ctx, 2, func(part int) ([]int64, error) {
		if part == 1 {
			return nil, fmt.Errorf("partition %d is broken", part)
		}
		return []int64{1}, nil
	})
	if _, err := Count(r); err == nil {
		t.Fatal("compute error should propagate to the action")
	}
}

func TestContextAccessors(t *testing.T) {
	ctx := testContext(t, 3, 4)
	if ctx.NumExecutors() != 3 || ctx.CoresPerExecutor() != 4 || ctx.TotalCores() != 12 {
		t.Fatal("geometry accessors wrong")
	}
	if ctx.RingParallelism() != 4 {
		t.Fatalf("RingParallelism = %d", ctx.RingParallelism())
	}
	if ctx.Metrics() == nil {
		t.Fatal("nil accessors")
	}
	if a, b := ctx.NewOpID(), ctx.NewOpID(); a == b {
		t.Fatal("NewOpID not unique")
	}
	r := FromSlice(ctx, ints(4), 2)
	if r.Context() != ctx || r.NumPartitions() != 2 || r.ID() == 0 {
		t.Fatal("RDD accessors wrong")
	}
	b, err := NewBroadcast(ctx, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.ID() == 0 {
		t.Fatal("broadcast ID zero")
	}
	// ExecContext.Context inside a task.
	_, err = ctx.RunJob(JobSpec{Tasks: 1, Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
		if ec.Context() != ctx {
			return nil, fmt.Errorf("ExecContext.Context mismatch")
		}
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
}
