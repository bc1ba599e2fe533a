package core

// Chaos suite for the unified aggregation API: split aggregation over a
// fault-injecting transport must either ride the fault out (delay) or
// degrade to the IMM re-run and still return the exact aggregate.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// chaosContext boots a cluster whose transport injects the given
// faults. The ring listeners of context name live at
// comm/<name>/ring/<rank>, so rules can target the PDR while leaving
// task dispatch and the block manager healthy — the paper's fault
// argument: Spark survives what MPI cannot.
func chaosContext(t *testing.T, name string, execs, cores, par int, rules ...*transport.FaultRule) *rdd.Context {
	t.Helper()
	net := transport.NewFaulty(transport.NewMem(), 7, rules...)
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             name,
		NumExecutors:     execs,
		CoresPerExecutor: cores,
		RingParallelism:  par,
		Network:          net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

func ringPrefixMatch(name string) func(transport.Addr) bool {
	prefix := "comm/" + name + "/ring/"
	return func(a transport.Addr) bool { return strings.HasPrefix(string(a), prefix) }
}

// requireExact fails unless got equals want bit for bit — the data is
// integer-valued, so every merge order yields the identical float64s.
func requireExact(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestChaosSplitKillFallsBack kills one executor's inbound
// ring links on the first data message: the collective fails with a
// classified error, the aggregation is re-run as StrategyIMM, and the
// result is exact. A second aggregation on the now-degraded ring must
// also come back exact.
func TestChaosSplitKillFallsBack(t *testing.T) {
	const samples, dim = 300, 97
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("p=%d", par), func(t *testing.T) {
			name := fmt.Sprintf("chaos-kill-%d", par)
			victim := transport.Addr(fmt.Sprintf("comm/%s/ring/%d", name, 1))
			ctx := chaosContext(t, name, 3, 2, par, &transport.FaultRule{
				Match:     func(a transport.Addr) bool { return a == victim },
				Kind:      transport.FaultKill,
				AfterMsgs: 1, // ring handshakes pass at boot; first step dies
			})
			r := vectorRDD(ctx, samples, 6)
			want := expectedVector(samples, dim)

			for round := 1; round <= 2; round++ {
				got, err := Aggregate(context.Background(), r, vecFuncs(dim),
					WithDeadline(500*time.Millisecond))
				if err != nil {
					t.Fatalf("round %d: fallback should mask the kill: %v", round, err)
				}
				requireExact(t, got, want)
				if n := ctx.Metrics().Count(metrics.CounterRingFallback); n != int64(round) {
					t.Fatalf("round %d: ring-fallback counter = %d, want %d", round, n, round)
				}
			}
			if n := ctx.Metrics().Count(metrics.CounterPeerFailure); n < 2 {
				t.Fatalf("peer-failure counter = %d, want >= 2", n)
			}
		})
	}
}

// TestChaosSplitDropFallsBack drops 100% of ring data: every
// ring task classifies a timeout within the step deadline, and the
// fallback still produces the exact aggregate.
func TestChaosSplitDropFallsBack(t *testing.T) {
	const samples, dim = 300, 97
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("p=%d", par), func(t *testing.T) {
			name := fmt.Sprintf("chaos-drop-%d", par)
			ctx := chaosContext(t, name, 3, 2, par, &transport.FaultRule{
				Match:     ringPrefixMatch(name),
				Kind:      transport.FaultDrop,
				AfterMsgs: 1, // handshakes pass, all data vanishes
			})
			r := vectorRDD(ctx, samples, 6)

			start := time.Now()
			got, err := Aggregate(context.Background(), r, vecFuncs(dim),
				WithDeadline(300*time.Millisecond))
			if err != nil {
				t.Fatalf("fallback should mask total message loss: %v", err)
			}
			requireExact(t, got, expectedVector(samples, dim))
			if ctx.Metrics().Count(metrics.CounterRingFallback) == 0 {
				t.Fatal("expected a recorded ring fallback")
			}
			// IMM + classification + fallback must stay well under the
			// no-deadline hang this suite exists to prevent.
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("aggregation took %v", elapsed)
			}
		})
	}
}

// TestChaosSplitDelaySucceeds slows every ring message down
// 10×: the ring is still healthy, so no fallback may trigger and the
// result is exact.
func TestChaosSplitDelaySucceeds(t *testing.T) {
	const samples, dim = 300, 97
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("p=%d", par), func(t *testing.T) {
			name := fmt.Sprintf("chaos-delay-%d", par)
			ctx := chaosContext(t, name, 3, 2, par, &transport.FaultRule{
				Match: ringPrefixMatch(name),
				Kind:  transport.FaultDelay,
				Delay: 10 * time.Millisecond,
			})
			r := vectorRDD(ctx, samples, 6)
			got, err := Aggregate(context.Background(), r, vecFuncs(dim),
				WithDeadline(2*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			requireExact(t, got, expectedVector(samples, dim))
			if n := ctx.Metrics().Count(metrics.CounterRingFallback); n != 0 {
				t.Fatalf("delay must not trigger fallback, counter = %d", n)
			}
		})
	}
}

// TestChaosFallbackSpan ties the chaos suite to the trace tentpole:
// a fault-triggered degradation must appear in the trace as a
// "ring-fallback" span parented on the aggregate span, annotated with
// the classified cause, and its duration is the measured cost of the
// degradation (the IMM re-run).
func TestChaosFallbackSpan(t *testing.T) {
	const samples, dim = 300, 97
	scenarios := []struct {
		kind transport.FaultKind
		tag  string
	}{
		{transport.FaultKill, "kill"},
		{transport.FaultDrop, "drop"},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.tag, func(t *testing.T) {
			name := "chaos-span-" + sc.tag
			rule := &transport.FaultRule{
				Match:     ringPrefixMatch(name),
				Kind:      sc.kind,
				AfterMsgs: 1,
			}
			if sc.kind == transport.FaultKill {
				victim := transport.Addr(fmt.Sprintf("comm/%s/ring/%d", name, 1))
				rule.Match = func(a transport.Addr) bool { return a == victim }
			}
			exp := &trace.MemExporter{}
			net := transport.NewFaulty(transport.NewMem(), 7, rule)
			ctx, err := rdd.NewContext(rdd.Config{
				Name:             name,
				NumExecutors:     3,
				CoresPerExecutor: 2,
				RingParallelism:  2,
				Network:          net,
				Tracer:           trace.New(exp),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Close()
			r := vectorRDD(ctx, samples, 6)

			got, err := Aggregate(context.Background(), r, vecFuncs(dim),
				WithDeadline(400*time.Millisecond))
			if err != nil {
				t.Fatalf("fallback should mask the %s: %v", sc.tag, err)
			}
			requireExact(t, got, expectedVector(samples, dim))

			aggs := exp.Named("aggregate")
			if len(aggs) != 1 {
				t.Fatalf("%d aggregate spans, want 1", len(aggs))
			}
			fbs := exp.Named("ring-fallback")
			if len(fbs) != 1 {
				t.Fatalf("%d ring-fallback spans, want 1", len(fbs))
			}
			fb := fbs[0]
			if fb.ParentID != aggs[0].SpanID || fb.TraceID != aggs[0].TraceID {
				t.Errorf("fallback span parent %x/trace %x, want under aggregate %x/%x",
					fb.ParentID, fb.TraceID, aggs[0].SpanID, aggs[0].TraceID)
			}
			if fb.Duration() <= 0 {
				t.Error("fallback span has no measured degradation duration")
			}
			if cause, ok := fb.Attr("cause"); !ok || cause == "" {
				t.Error("fallback span missing the classified cause attr")
			}
			if rec, _ := fb.Attr("recovered"); rec != "true" {
				t.Errorf("fallback span recovered attr = %q, want true", rec)
			}
			// The degradation happened mid-aggregate: its duration is a
			// sub-interval of the aggregate span.
			if fb.Duration() > aggs[0].Duration() {
				t.Errorf("fallback lasted %v, longer than its aggregate %v",
					fb.Duration(), aggs[0].Duration())
			}
		})
	}
}

// TestChaosAllReduceKillFallsBack: the allreduce strategy degrades the
// same way, and the KeepKey result replicated by the fallback matches
// the driver copy on every executor.
func TestChaosAllReduceKillFallsBack(t *testing.T) {
	const samples, dim = 200, 48
	name := "chaos-ar-kill"
	victim := transport.Addr(fmt.Sprintf("comm/%s/ring/%d", name, 2))
	ctx := chaosContext(t, name, 3, 2, 2, &transport.FaultRule{
		Match:     func(a transport.Addr) bool { return a == victim },
		Kind:      transport.FaultKill,
		AfterMsgs: 1,
	})
	r := vectorRDD(ctx, samples, 6)
	want := expectedVector(samples, dim)

	got, err := Aggregate(context.Background(), r, vecFuncs(dim),
		WithStrategy(StrategyAllReduce), WithKeepKey("model/chaos"),
		WithDeadline(500*time.Millisecond))
	if err != nil {
		t.Fatalf("fallback should mask the kill: %v", err)
	}
	requireExact(t, got, want)
	if ctx.Metrics().Count(metrics.CounterRingFallback) == 0 {
		t.Fatal("expected a recorded ring fallback")
	}
	payloads, err := ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		obj := ec.MutObjs.Get("model/chaos")
		if obj == nil {
			return []byte{0}, nil
		}
		var resident []float64
		obj.Read(func(v any) { resident, _ = v.([]float64) })
		if len(resident) != len(want) {
			return []byte{0}, nil
		}
		for i := range resident {
			if resident[i] != want[i] {
				return []byte{0}, nil
			}
		}
		return []byte{1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if len(p) != 1 || p[0] != 1 {
			t.Fatalf("executor %d: replicated KeepKey result missing or wrong", i)
		}
	}
}
