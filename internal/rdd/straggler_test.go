package rdd

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/transport"
)

// stragglerContext builds a context whose executor 0 sits behind a
// transport that delays every task-channel message by delay — the
// straggling-node shape speculation exists for. The executor computes
// at full speed; its work just arrives and reports late.
func stragglerContext(t *testing.T, name string, cores int, delay time.Duration, speculation bool) *Context {
	t.Helper()
	var net transport.Network = transport.NewMem()
	if delay > 0 {
		slow := taskAddr(name, 0)
		net = transport.NewFaulty(net, 1,
			transport.StragglerRule(func(a transport.Addr) bool { return a == slow }, delay, 0))
	}
	ctx, err := NewContext(Config{
		Name:             name,
		NumExecutors:     4,
		CoresPerExecutor: cores,
		Network:          net,
		Speculation:      speculation,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

// stragglerPayload is deterministic per task so results can be compared
// bitwise across runs.
func stragglerPayload(task int) []byte {
	out := make([]byte, 64)
	for i := range out {
		out[i] = byte(task*31 + i)
	}
	return out
}

func runStragglerStage(t *testing.T, ctx *Context, tasks int, runtime time.Duration) ([][]byte, []int) {
	t.Helper()
	h, err := ctx.SubmitJob(JobSpec{
		Tasks: tasks,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			time.Sleep(runtime)
			return stragglerPayload(task), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return out, h.Executors()
}

// TestStragglerSpeculation is the straggler chaos test: with executor
// 0's task channel delayed 300ms per message, speculation must
// launch exactly one duplicate, the fast copy must win on a different
// executor, and the results must be bitwise identical to both the
// unperturbed run and the speculation-off run.
func TestStragglerSpeculation(t *testing.T) {
	// One 120ms task per executor. The runtime sets the noise margin: the
	// detector duplicates whatever runs past 1.5× the median, so a
	// healthy task would need 60ms of scheduling noise to draw a
	// spurious duplicate.
	const tasks, runtime = 4, 120 * time.Millisecond
	// Unperturbed baseline.
	base, _ := runStragglerStage(t, stragglerContext(t, "t-strag-base", 1, 0, false), tasks, runtime)

	// Straggler with speculation off: correct but slow (the stage waits
	// out the full transport delay both ways).
	offCtx := stragglerContext(t, "t-strag-off", 1, 300*time.Millisecond, false)
	offStart := time.Now()
	off, offExecs := runStragglerStage(t, offCtx, tasks, runtime)
	offWall := time.Since(offStart)

	// Straggler with speculation on.
	onCtx := stragglerContext(t, "t-strag-on", 1, 300*time.Millisecond, true)
	onStart := time.Now()
	on, onExecs := runStragglerStage(t, onCtx, tasks, runtime)
	onWall := time.Since(onStart)

	for task := range base {
		if !bytes.Equal(base[task], off[task]) {
			t.Fatalf("task %d: speculation-off result differs from baseline", task)
		}
		if !bytes.Equal(base[task], on[task]) {
			t.Fatalf("task %d: speculation-on result differs from baseline", task)
		}
	}

	// Without speculation, task 0 must have run on its home executor and
	// paid the delay twice (frame in, result out).
	if offExecs[0] != 0 {
		t.Fatalf("speculation-off task 0 ran on executor %d, want 0", offExecs[0])
	}
	if offWall < 600*time.Millisecond {
		t.Fatalf("speculation-off wall %v, expected >= 600ms of transport delay", offWall)
	}

	// With speculation, the duplicate must win somewhere off executor 0,
	// well before the delayed original reports.
	if onExecs[0] == 0 {
		t.Fatal("speculation-on task 0 still won on the straggler executor")
	}
	if got := onCtx.Metrics().Count(metrics.CounterSpecLaunched); got != 1 {
		t.Fatalf("spec-launched count %d, want exactly 1", got)
	}
	if got := onCtx.Metrics().Count(metrics.CounterSpecWon); got != 1 {
		t.Fatalf("spec-won count %d, want 1", got)
	}
	if onWall >= offWall {
		t.Fatalf("speculation-on wall %v not faster than speculation-off %v", onWall, offWall)
	}

	// Healthy tasks stay put: round-robin homes for tasks 1-3.
	for task := 1; task < 4; task++ {
		if onExecs[task] != task {
			t.Fatalf("task %d ran on executor %d, want %d", task, onExecs[task], task)
		}
	}
}

// TestStragglerSpeculationMultiWave is the cost claim: a four-wave stage
// (64 × 30ms tasks on 16 slots) with one of four executors' task
// channel delayed 10× the task runtime finishes, speculation on, within
// 2× the healthy wall clock — duplicating what already runs on the
// straggler and migrating what is still queued for it — with the
// results bitwise identical.
func TestStragglerSpeculationMultiWave(t *testing.T) {
	const tasks = 64
	// The wall clock is the median of three stages on the same cluster:
	// one unlucky schedule (a second round of duplicates) is not the
	// claim.
	timed := func(ctx *Context) (out [][]byte, median time.Duration) {
		var walls [3]time.Duration
		for i := range walls {
			start := time.Now()
			out, _ = runStragglerStage(t, ctx, tasks, 30*time.Millisecond)
			walls[i] = time.Since(start)
		}
		sort.Slice(walls[:], func(i, j int) bool { return walls[i] < walls[j] })
		return out, walls[1]
	}
	base, baseWall := timed(stragglerContext(t, "t-strag-wave-base", 4, 0, false))
	onCtx := stragglerContext(t, "t-strag-wave-on", 4, 300*time.Millisecond, true)
	on, onWall := timed(onCtx)

	for task := range base {
		if !bytes.Equal(base[task], on[task]) {
			t.Fatalf("task %d: speculation-on result differs from baseline", task)
		}
	}
	rec := onCtx.Metrics()
	if rec.Count(metrics.CounterSpecLaunched) == 0 && rec.Count(metrics.CounterSpecMigrated) == 0 {
		t.Fatal("straggling cluster neither duplicated nor migrated anything")
	}
	t.Logf("healthy %v, straggler with speculation %v (%.2f×); launched %d, migrated %d", baseWall, onWall,
		float64(onWall)/float64(baseWall), rec.Count(metrics.CounterSpecLaunched), rec.Count(metrics.CounterSpecMigrated))
	if onWall > 2*baseWall {
		t.Fatalf("speculation-on wall %v is %.2f× the healthy %v, claim requires <= 2×", onWall, float64(onWall)/float64(baseWall), baseWall)
	}
}

// TestStragglerSpeculationPipeline runs a real RDD action through the
// straggling cluster and checks end-to-end results match a healthy run,
// exercising the block-fetch paths that consume winner placements.
func TestStragglerSpeculationPipeline(t *testing.T) {
	compute := func(ctx *Context) []int64 {
		r := FromSlice(ctx, ints(64), 4)
		slow := Map(r, func(v int64) int64 {
			time.Sleep(time.Millisecond)
			return v * 3
		})
		out, err := Collect(slow)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := compute(stragglerContext(t, "t-strag-pipe-base", 1, 0, false))
	got := compute(stragglerContext(t, "t-strag-pipe-on", 1, 200*time.Millisecond, true))
	if len(want) != len(got) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("element %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestStragglerTreeAggregate checks combine rounds follow recorded
// winner placements: a speculated stage-1 task's block lands off its
// round-robin home, and the next round must fetch from the winner.
func TestStragglerTreeAggregate(t *testing.T) {
	ctx := stragglerContext(t, "t-strag-tree", 1, 200*time.Millisecond, true)
	r := FromSlice(ctx, ints(512), 4)
	slowed := Map(r, func(v int64) int64 {
		time.Sleep(time.Millisecond)
		return v
	})
	got, err := TreeAggregate(slowed,
		func() int64 { return 0 },
		func(acc, v int64) int64 { return acc + v },
		func(a, b int64) int64 { return a + b },
		AggregateOptions{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range ints(512) {
		want += v
	}
	if got != want {
		t.Fatalf("sum %d, want %d", got, want)
	}
	if fmt.Sprint(ctx.Metrics().Count(metrics.CounterResultDropped)) != "0" {
		t.Fatal("results were dropped on the floor")
	}
}
