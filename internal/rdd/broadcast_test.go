package rdd

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestBroadcastValueOnExecutors(t *testing.T) {
	ctx := testContext(t, 3, 2)
	weights := []float64{1.5, -2.5, 3.5}
	b, err := NewBroadcast(ctx, weights)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		v, err := b.Value(ec)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(v, weights) {
			return nil, fmt.Errorf("executor %d saw %v", ec.ID, v)
		}
		return []byte{1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("ran on %d executors", len(out))
	}
}

func TestBroadcastFetchedOncePerExecutor(t *testing.T) {
	ctx := testContext(t, 2, 2)
	b, err := NewBroadcast(ctx, []float64{42})
	if err != nil {
		t.Fatal(err)
	}
	// Many tasks per executor read the value; afterwards each executor
	// must hold exactly one cached copy (fetch count is hard to observe
	// directly, but the cache key must be present and correct).
	var reads int64
	_, err = ctx.RunJob(JobSpec{
		Tasks: 16,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			v, err := b.Value(ec)
			if err != nil {
				return nil, err
			}
			if v[0] != 42 {
				return nil, fmt.Errorf("bad value %v", v)
			}
			atomic.AddInt64(&reads, 1)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reads != 16 {
		t.Fatalf("reads = %d", reads)
	}
	out, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		if _, ok := ec.CacheGet(b.cacheKey()); !ok {
			return nil, fmt.Errorf("executor %d has no cached broadcast", ec.ID)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = out
}

func TestBroadcastDestroy(t *testing.T) {
	ctx := testContext(t, 2, 1)
	b, err := NewBroadcast(ctx, int64(7))
	if err != nil {
		t.Fatal(err)
	}
	// Prime one executor's cache.
	if _, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		_, err := b.Value(ec)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Destroy(); err != nil {
		t.Fatal(err)
	}
	// Reads must now fail on every executor (cache cleared + block gone).
	_, err = ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		if _, err := b.Value(ec); err == nil {
			return nil, fmt.Errorf("executor %d read destroyed broadcast", ec.ID)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Destroy(); err != nil {
		t.Fatal("second Destroy should be a no-op")
	}
}

func TestBroadcastUnencodableValue(t *testing.T) {
	ctx := testContext(t, 2, 1)
	type secret struct{ x int }
	if _, err := NewBroadcast(ctx, secret{1}); err == nil {
		t.Fatal("unregistered type should fail to broadcast")
	}
}

// TestDeriveSeesExecutorContext: Derive's f runs executor-side with
// that executor's context and materializes the parent only on request.
func TestDeriveSeesExecutorContext(t *testing.T) {
	ctx := testContext(t, 3, 1)
	r := FromSlice(ctx, ints(9), 3)
	tagged := Derive(r, func(ec *ExecContext, part int, parent func() ([]int64, error)) ([]int64, error) {
		in, err := parent()
		if err != nil {
			return nil, err
		}
		out := make([]int64, len(in))
		for i, v := range in {
			out[i] = v*100 + int64(ec.ID)
		}
		return out, nil
	})
	got, err := Collect(tagged)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		execID := v % 100
		if v/100 != int64(i) {
			t.Fatalf("element %d mangled: %d", i, v)
		}
		if execID < 0 || execID > 2 {
			t.Fatalf("bad executor id %d", execID)
		}
	}
	var computed atomic.Int64
	counted := Generate(ctx, 3, func(part int) ([]int64, error) {
		computed.Add(1)
		return []int64{int64(part)}, nil
	})
	skipped := Derive(counted, func(ec *ExecContext, part int, _ func() ([]int64, error)) ([]int64, error) {
		return []int64{int64(part)}, nil
	})
	if n, err := Count(skipped); err != nil || n != 3 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if n := computed.Load(); n != 0 {
		t.Fatalf("parent computed %d times though f never asked for it", n)
	}
}

func TestTake(t *testing.T) {
	ctx := testContext(t, 2, 1)
	r := FromSlice(ctx, ints(50), 5)
	got, err := Take(r, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ints(12)) {
		t.Fatalf("Take = %v", got)
	}
	if got, err := Take(r, 0); err != nil || len(got) != 0 {
		t.Fatalf("Take(0) = %v, %v", got, err)
	}
	big, err := Take(r, 500)
	if err != nil || len(big) != 50 {
		t.Fatalf("Take beyond size = %d elems, %v", len(big), err)
	}
}
