package collective

// Telemetry overhead gate for the PR 1 zero-allocation hot path: with
// neither a tracer nor a metrics registry in the context, the ring
// reduce-scatter must allocate no more per op than the pre-telemetry
// baselines recorded in DESIGN.md ("Performance notes"). Allocation
// counts are machine-stable, so they are the hard gate; wall-clock is
// reported for the log but not asserted (cross-machine time
// comparisons are meaningless). Run via `make overhead`.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/obsv"
	"sparker/internal/serde"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// benchHotRing runs the BenchmarkRingReduceScatterHot body (N=4 ranks,
// 1 MiB segments) with the collective context built by ctxFor, and
// returns the measured result.
func benchHotRing(t *testing.T, p int, name string, ctxFor func(rank int) context.Context) testing.BenchmarkResult {
	t.Helper()
	return benchHotRingData(t, p, name, ctxFor, func(j int) float64 { return float64(j%17) * 0.25 })
}

// benchHotRingData is benchHotRing over segments whose element j is
// fill(j); the result's "wireB/op" is rank 0's bytes sent per op.
func benchHotRingData(t *testing.T, p int, name string, ctxFor func(rank int) context.Context, fill func(j int) float64) testing.BenchmarkResult {
	t.Helper()
	const (
		n      = 4
		segLen = 1 << 17
	)
	var failed error
	res := testing.Benchmark(func(b *testing.B) {
		net := transport.NewMem()
		defer net.Close()
		eps, err := comm.NewGroup(net, fmt.Sprintf("overhead-%s-%d", name, p), n)
		if err != nil {
			failed = err
			b.Skip(err)
		}
		defer comm.CloseGroup(eps)
		inputs := make([][][]float64, n)
		for r := range inputs {
			inputs[r] = make([][]float64, p*n)
			for i := range inputs[r] {
				seg := make([]float64, segLen)
				for j := range seg {
					seg[j] = fill(j)
				}
				inputs[r][i] = seg
			}
		}
		ctxs := make([]context.Context, n)
		for r := range ctxs {
			ctxs[r] = ctxFor(r)
		}
		op := func() {
			var wg sync.WaitGroup
			for _, e := range eps {
				wg.Add(1)
				go func(e *comm.Endpoint) {
					defer wg.Done()
					if _, err := RingReduceScatter(ctxs[e.Rank()], e, inputs[e.Rank()], p, F64Ops()); err != nil {
						b.Error(err)
					}
				}(e)
			}
			wg.Wait()
		}
		// One untimed op dials the group's links and fills the pools, so
		// the counts are the steady state's: the one-off cost of the dial,
		// divided by a b.N the clock picks, would read higher the busier
		// the host is.
		op()
		warm := eps[0].Stats().BytesSent
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		b.ReportMetric(float64(eps[0].Stats().BytesSent-warm)/float64(b.N), "wireB/op")
	})
	if failed != nil {
		t.Fatal(failed)
	}
	return res
}

// allocsFloor measures the hot ring and returns the result plus the
// minimum allocs/op observed, re-measuring up to two more rounds when
// the count exceeds budget. One testing.Benchmark round can read a few
// allocs high when a GC cycle lands mid-measurement and evicts the
// wire-buffer pools (common under full-suite CPU contention); the
// floor across rounds is the steady-state count, while a genuine
// hot-path escape raises every round.
func allocsFloor(t *testing.T, p int, name string, budget int64, ctxFor func(int) context.Context) (testing.BenchmarkResult, int64) {
	return allocsFloorOf(budget, func(round int) testing.BenchmarkResult {
		return benchHotRing(t, p, fmt.Sprintf("%s-r%d", name, round), ctxFor)
	})
}

// allocsFloorOf is allocsFloor over any measurement.
func allocsFloorOf(budget int64, bench func(round int) testing.BenchmarkResult) (testing.BenchmarkResult, int64) {
	res := bench(1)
	min := res.AllocsPerOp()
	for round := 2; min > budget && round <= 3; round++ {
		if a := bench(round).AllocsPerOp(); a < min {
			min = a
		}
	}
	return res, min
}

// TestTelemetryOverheadOff asserts the telemetry-off allocation budget:
// the per-op allocation count of the hot ring must stay at the steady
// state the warmed-up measurement reads (53 at P=1, 113 at P=4) plus a
// small scheduler-noise slack. A failure
// here means the disabled telemetry path started allocating — most
// likely something in the step closure now escapes.
func TestTelemetryOverheadOff(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocs; gate runs without -race (make overhead)")
	}
	baselines := map[int]int64{1: 53, 4: 113}
	const slack = 3
	for _, p := range []int{1, 4} {
		off, allocs := allocsFloor(t, p, "off", baselines[p]+slack, func(int) context.Context {
			return context.Background()
		})
		t.Logf("P=%d tracing off: %v/op, %d allocs/op (baseline %d)",
			p, off.NsPerOp(), allocs, baselines[p])
		if allocs > baselines[p]+slack {
			t.Errorf("P=%d: telemetry-off path allocates %d/op, baseline %d (+%d slack): disabled telemetry is no longer free",
				p, allocs, baselines[p], slack)
		}
	}
}

// TestTelemetryOverheadRecorderOn asserts the flight-recorder-enabled
// allocation budget: with an obsv ring in the context (but tracing and
// metrics off — the recorder-only production shape), the hot ring must
// hold the same PR 1 baselines as the fully-off path. The per-step
// record is a fixed-size struct store under a mutex into a
// preallocated ring; a failure here means the recorder hook started
// escaping.
func TestTelemetryOverheadRecorderOn(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocs; gate runs without -race (make overhead)")
	}
	baselines := map[int]int64{1: 53, 4: 113}
	const slack = 3
	for _, p := range []int{1, 4} {
		rings := make([]*obsv.Ring, 4)
		for r := range rings {
			rings[r] = obsv.NewRing(obsv.DefaultRingSize)
		}
		on, allocs := allocsFloor(t, p, "rec-on", baselines[p]+slack, func(rank int) context.Context {
			return obsv.NewContext(context.Background(), rings[rank])
		})
		t.Logf("P=%d recorder on: %v/op, %d allocs/op (baseline %d)",
			p, on.NsPerOp(), allocs, baselines[p])
		if allocs > baselines[p]+slack {
			t.Errorf("P=%d: flight-recorder path allocates %d/op, baseline %d (+%d slack): the recorder hook must stay allocation-free",
				p, allocs, baselines[p], slack)
		}
		if rings[0].Snapshot().Total == 0 {
			t.Errorf("P=%d: recorder captured no step records", p)
		}
	}
}

// TestPipelineOverheadChunkingOn asserts the chunked pipelined path
// honours the same telemetry-off allocation budget as the single-frame
// baseline: with chunking pinned on (256 KiB chunks, four per 1 MiB
// segment) and no telemetry, allocations per op must not exceed the
// chunking-off run measured back to back in the same process. The
// comparison is relative on purpose — scheduler contention inflates
// both modes identically, while a chunk-path escape shows up only in
// the on mode. The absolute PR 1 baseline stays enforced by
// TestTelemetryOverheadOff.
func TestPipelineOverheadChunkingOn(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocs; gate runs without -race (make overhead)")
	}
	baselines := map[int]int64{1: 53, 4: 113}
	const slack = 3
	for _, p := range []int{1, 4} {
		off := benchHotRing(t, p, "chunk-off", func(int) context.Context {
			return WithChunkBytes(context.Background(), -1)
		})
		on, onAllocs := allocsFloor(t, p, "chunk-on", off.AllocsPerOp()+slack, func(int) context.Context {
			return WithChunkBytes(context.Background(), 256<<10)
		})
		t.Logf("P=%d chunking on: %v/op %d allocs/op; off: %v/op %d allocs/op (baseline %d)",
			p, on.NsPerOp(), onAllocs, off.NsPerOp(), off.AllocsPerOp(), baselines[p])
		if onAllocs > off.AllocsPerOp()+slack {
			t.Errorf("P=%d: pipelined path allocates %d/op vs %d/op with chunking off (+%d slack): chunking must not cost steady-state allocations",
				p, onAllocs, off.AllocsPerOp(), slack)
		}
	}
}

// TestPipelineOverheadPacked holds the packed chunk form to the dense
// path's budget: on segments that are 1/32 non-zero — every chunk's
// counting pass picks packed — the counting pass, the packed encode into
// a pooled draw and the bit-walking decode-reduce add no steady-state
// allocations, whole-segment (one-chunk packed trains) or chunked, and
// neither does encoding from a support (WithSupport): the per-channel
// copies come from a pool. The wire-byte check keeps the gate from
// passing vacuously on the dense path.
func TestPipelineOverheadPacked(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocs; gate runs without -race (make overhead)")
	}
	baselines := map[int]int64{1: 53, 4: 113}
	const slack = 3
	sparse := func(j int) float64 {
		if j%32 != 0 {
			return 0
		}
		return float64(j%17+1) * 0.25
	}
	// support is one rank's bitmap over its p×4 segments of 1<<17
	// elements: every 32nd element, as sparse fills them.
	support := func(p int) []uint64 {
		words := make([]uint64, serde.PackedWords(p*4<<17))
		for w := range words {
			words[w] = 1 | 1<<32
		}
		return words
	}
	for _, p := range []int{1, 4} {
		for _, chunkBytes := range []int{-1, 256 << 10} {
			for _, withSup := range []bool{false, true} {
				res, min := allocsFloorOf(baselines[p]+slack, func(round int) testing.BenchmarkResult {
					return benchHotRingData(t, p, fmt.Sprintf("packed-%d-%v-r%d", chunkBytes, withSup, round), func(int) context.Context {
						ctx := WithChunkBytes(context.Background(), chunkBytes)
						if withSup {
							ctx = WithSupport(ctx, support(p))
						}
						return ctx
					}, sparse)
				})
				// Dense would be 3 steps × p channels × 1 MiB per op.
				dense := float64(3 * p * (8 << 17))
				t.Logf("P=%d chunkBytes=%d support=%v packed: %v/op, %d allocs/op (baseline %d), %.0f wire B/op (dense %.0f)",
					p, chunkBytes, withSup, res.NsPerOp(), min, baselines[p], res.Extra["wireB/op"], dense)
				if min > baselines[p]+slack {
					t.Errorf("P=%d chunkBytes=%d support=%v: packed path allocates %d/op, baseline %d (+%d slack)", p, chunkBytes, withSup, min, baselines[p], slack)
				}
				if got := res.Extra["wireB/op"]; got > dense/4 {
					t.Errorf("P=%d chunkBytes=%d support=%v: %.0f wire bytes per op, dense is %.0f: the packed path did not run", p, chunkBytes, withSup, got, dense)
				}
			}
		}
	}
}

// TestPipelineOverheadDense holds dense chunk trains at a pinned chunk
// size (four 256 KiB frames per 1 MiB segment) to the absolute PR 1
// allocation baselines, and pins the condition those baselines rest on:
// the collectives' goroutines capture Ops by value, and the compiler
// stops doing that for free above 128 bytes — one more callback field
// costs a heap allocation per collective.
func TestPipelineOverheadDense(t *testing.T) {
	if size := unsafe.Sizeof(Ops[[]float64]{}); size > 128 {
		t.Errorf("Ops is %d bytes, want <= 128: put new hooks behind a pointer, as Ops.Packed is", size)
	}
	if testing.Short() {
		t.Skip("overhead gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocs; gate runs without -race (make overhead)")
	}
	baselines := map[int]int64{1: 53, 4: 113}
	const slack = 3
	for _, p := range []int{1, 4} {
		res, allocs := allocsFloor(t, p, "dense", baselines[p]+slack, func(int) context.Context {
			return WithChunkBytes(context.Background(), 256<<10)
		})
		t.Logf("P=%d dense 256 KiB trains: %v/op, %d allocs/op (baseline %d)",
			p, res.NsPerOp(), allocs, baselines[p])
		if allocs > baselines[p]+slack {
			t.Errorf("P=%d: dense chunk trains allocate %d/op, baseline %d (+%d slack)",
				p, allocs, baselines[p], slack)
		}
	}
}

// TestTelemetryOverheadTracedReport measures the fully-traced ring
// (span per step, histograms recording) against the off path and logs
// the ratio. Informational only: tracing-on overhead is allowed to be
// real, it just has to be visible.
func TestTelemetryOverheadTracedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead report skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the comparison; run without -race")
	}
	tr := trace.New(nil) // times spans, drops them: isolates span-path cost
	const p = 1
	off := benchHotRing(t, p, "off2", func(int) context.Context {
		return context.Background()
	})
	traced := benchHotRing(t, p, "on", func(rank int) context.Context {
		root := tr.StartRoot("overhead-task")
		ctx := trace.WithSpan(context.Background(), root)
		return metrics.NewContext(ctx, metrics.NewRegistry())
	})
	ratio := float64(traced.NsPerOp()) / float64(off.NsPerOp())
	t.Logf("P=%d traced: %v/op vs off %v/op (%.2fx), traced allocs %d/op",
		p, traced.NsPerOp(), off.NsPerOp(), ratio, traced.AllocsPerOp())
}
