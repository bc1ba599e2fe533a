package core

// Elastic chaos suite: collectives racing real membership churn. An
// executor killed mid-collective must be evicted and the aggregation
// retried whole against the new epoch; an executor joining mid-
// collective must not corrupt the in-flight ring (per-epoch comm
// groups make stale frames unroutable); and results must stay exact
// throughout. Runs under the race detector via `make test-chaos`.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/trace"
)

// TestChaosElasticKillMidTraining kills one executor while an
// aggregation loop runs. Every iteration must return the exact sum —
// before the kill on the 4-ring, across the kill via the elastic retry
// (or fallback when the epoch was already stable again), and after it
// on the 3-ring.
func TestChaosElasticKillMidTraining(t *testing.T) {
	const samples, dim = 300, 97
	ctx := testContext(t, 4, 2)
	r := vectorRDD(ctx, samples, 8)
	want := expectedVector(samples, dim)

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(15 * time.Millisecond)
		if err := ctx.KillExecutor(3); err != nil {
			t.Errorf("kill: %v", err)
		}
	}()

	for i := 0; i < 12; i++ {
		got, err := Aggregate(context.Background(), r, vecFuncs(dim),
			WithDeadline(500*time.Millisecond))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		requireExact(t, got, want)
	}
	<-killed
	if !ctx.AwaitReconfigured(1, 10*time.Second) {
		t.Fatal("kill never installed a new epoch")
	}
	if n := ctx.NumLiveExecutors(); n != 3 {
		t.Fatalf("live executors = %d after kill, want 3", n)
	}
	// And the shrunken ring keeps aggregating exactly.
	got, err := Aggregate(context.Background(), r, vecFuncs(dim))
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, got, want)
}

// TestChaosElasticKillAndReplace is the full cycle the tentpole exists
// for: kill, evict, replacement adopts the dead slot, and the very next
// collectives run on the restored-width ring — still exact.
func TestChaosElasticKillAndReplace(t *testing.T) {
	const samples, dim = 300, 97
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6)
	want := expectedVector(samples, dim)

	e0 := ctx.MembershipEpoch()
	if err := ctx.KillExecutor(1); err != nil {
		t.Fatal(err)
	}
	if !ctx.AwaitReconfigured(e0, 10*time.Second) {
		t.Fatal("kill not detected")
	}
	got, err := Aggregate(context.Background(), r, vecFuncs(dim),
		WithDeadline(500*time.Millisecond))
	if err != nil {
		t.Fatalf("aggregate on survivors: %v", err)
	}
	requireExact(t, got, want)

	id, err := ctx.AddExecutor("replacement")
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("replacement adopted slot %d, want 1", id)
	}
	for i := 0; i < 3; i++ {
		got, err := Aggregate(context.Background(), r, vecFuncs(dim))
		if err != nil {
			t.Fatalf("post-replace iteration %d: %v", i, err)
		}
		requireExact(t, got, want)
	}
	if n := ctx.NumLiveExecutors(); n != 3 {
		t.Fatalf("live executors = %d after replace, want 3", n)
	}
}

// TestChaosElasticJoinMidCollective grows the cluster while an
// aggregation loop is in flight. The join's reconfiguration drains or
// overlaps the collectives; either way every result is exact, and once
// the new epoch installs, later collectives ride the wider ring. Stale
// epoch frames cannot reach the new ring — each epoch's collective
// group listens on its own addresses.
func TestChaosElasticJoinMidCollective(t *testing.T) {
	const samples, dim = 300, 97
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6)
	want := expectedVector(samples, dim)

	joined := make(chan int, 1)
	go func() {
		time.Sleep(15 * time.Millisecond)
		id, err := ctx.AddExecutor("joiner")
		if err != nil {
			t.Errorf("join: %v", err)
		}
		joined <- id
	}()

	for i := 0; i < 12; i++ {
		got, err := Aggregate(context.Background(), r, vecFuncs(dim),
			WithDeadline(500*time.Millisecond))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		requireExact(t, got, want)
	}
	id := <-joined
	if id != 3 {
		t.Fatalf("joiner got slot %d, want growth slot 3", id)
	}
	if n := ctx.NumLiveExecutors(); n != 4 {
		t.Fatalf("live executors = %d after join, want 4", n)
	}
	got, err := Aggregate(context.Background(), r, vecFuncs(dim))
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, got, want)
}

// TestChaosElasticRetryClassification pins the decision boundary: a
// collective that fails BECAUSE membership changed must be retried
// whole (counter: elastic-retry), not silently merged from surviving
// IMM aggregators — the dead member's aggregator is gone, so the
// fallback would undercount.
func TestChaosElasticRetryClassification(t *testing.T) {
	const samples, dim = 400, 64
	ctx := testContext(t, 3, 2)
	r := vectorRDD(ctx, samples, 6)
	want := expectedVector(samples, dim)

	// Hammer aggregations while the kill lands, so at least one
	// collective observes the churn window.
	go func() {
		time.Sleep(5 * time.Millisecond)
		ctx.KillExecutor(2)
	}()
	for i := 0; i < 20; i++ {
		got, err := Aggregate(context.Background(), r, vecFuncs(dim),
			WithDeadline(300*time.Millisecond))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		requireExact(t, got, want)
	}
	if !ctx.AwaitReconfigured(1, 10*time.Second) {
		t.Fatal("kill never installed a new epoch")
	}
	// The critical invariant is exactness above. The retry counter is
	// timing-dependent (the kill can land between collectives), so only
	// report it.
	t.Logf("elastic retries: %d, ring fallbacks: %d",
		ctx.Metrics().Count(metrics.CounterElasticRetry),
		ctx.Metrics().Count(metrics.CounterRingFallback))
}

// churnBetweenStages is a span exporter that kills and replaces one
// executor the moment the first reduced-result (IMM) stage span ends —
// on the driver goroutine, after the stage's Wait returned and before
// the aggregation submits its second stage.
type churnBetweenStages struct {
	ctx    *rdd.Context
	victim int
	once   sync.Once
	err    error
}

func (c *churnBetweenStages) ExportSpan(s trace.Span) {
	if kind, _ := s.Attr("kind"); s.Name != "stage" || kind != "reduced-result" {
		return
	}
	c.once.Do(func() {
		e0 := c.ctx.MembershipEpoch()
		if c.err = c.ctx.KillExecutor(c.victim); c.err != nil {
			return
		}
		if !c.ctx.AwaitReconfigured(e0, 10*time.Second) {
			c.err = errors.New("kill never installed a new epoch")
			return
		}
		_, c.err = c.ctx.AddExecutor("replacement")
	})
}

// TestChaosElasticIMMReplaceBetweenStages: StrategyIMM has no ring, but
// its aggregators are as resident as the ring strategies'. An executor
// killed and replaced between the IMM stage and the gather takes its
// aggregator with it; the gather task on the replacement classifies
// that as membership change, and Aggregate must re-run the aggregation
// on the new cluster instead of handing the classification to the
// caller.
func TestChaosElasticIMMReplaceBetweenStages(t *testing.T) {
	const samples, dim = 300, 97
	churn := &churnBetweenStages{victim: 1}
	ctx, err := rdd.NewContext(rdd.Config{
		Name: "core-imm-replace", NumExecutors: 3, CoresPerExecutor: 2, Tracer: trace.New(churn),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	churn.ctx = ctx
	r := vectorRDD(ctx, samples, 6)

	got, err := Aggregate(context.Background(), r, vecFuncs(dim), WithStrategy(StrategyIMM))
	if churn.err != nil {
		t.Fatalf("kill-and-replace: %v", churn.err)
	}
	if err != nil {
		t.Fatalf("IMM across a kill-and-replace: %v", err)
	}
	requireExact(t, got, expectedVector(samples, dim))
	if n := ctx.Metrics().Count(metrics.CounterElasticRetry); n != 1 {
		t.Fatalf("elastic-retry counter = %d, want 1", n)
	}
	if n := ctx.Metrics().Count(metrics.CounterRingFallback); n != 0 {
		t.Fatalf("ring-fallback counter = %d, want 0 (nothing degraded)", n)
	}
	if n := ctx.NumLiveExecutors(); n != 3 {
		t.Fatalf("live executors = %d after replace, want 3", n)
	}
}
