package bench

// ElasticChurn is the evidence figure for elastic membership
// (DESIGN.md §17): the same logistic-regression loop is run twice on a
// real cluster — once undisturbed, once with an executor hard-killed
// mid-training and a replacement joining a few iterations later. Every
// gradient is exact (a churn-broken collective is retried whole against
// the new epoch), so the two loss trajectories coincide; the cost of
// elasticity shows up only as iteration-time blowup in the iterations
// that ride through a reconfiguration. The claims under test: the
// reconfiguration-window mean iteration time is ≤ 3× the churned run's
// own steady-state p50 (worst single iteration sanity-bounded at 6× —
// a kill landing mid-collective pays the broken attempt plus a whole
// retry plus cold-partition recompute), and the churned run reaches
// the undisturbed run's target loss in the same number of iterations.
//
// `make bench-compare` renders this as BENCH_PR10.json.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sparker/internal/data"
	"sparker/internal/metrics"
	"sparker/internal/mllib"
	"sparker/internal/rdd"
)

// elasticParams sizes one churn comparison.
type elasticParams struct {
	execs, cores int
	// scale divides the avazu profile (data.Profile.Scaled) to pick the
	// dataset size; parts is the RDD partition count.
	scale, parts int
	// iters measured GD iterations; warmup unmeasured iterations first
	// (cache materialization and scheduler warm paths).
	iters, warmup int
	// killAt / rejoinAt are measured-iteration indices: the victim is
	// hard-killed just before iteration killAt starts, and the
	// replacement's join is launched just before iteration rejoinAt.
	killAt, rejoinAt int
	// victim is the executor slot killed (and re-adopted by the join).
	victim int
	// reconfSpan marks iterations [killAt, killAt+span) and
	// [rejoinAt, rejoinAt+span) as the reconfiguration window; the rest
	// are steady state.
	reconfSpan int
}

// defaultElasticParams: 4 executors × 2 cores, 24 iterations over an
// avazu-shaped dataset, kill at 8, rejoin at 16.
var defaultElasticParams = elasticParams{
	execs: 4, cores: 2,
	scale: 100, parts: 8,
	iters: 24, warmup: 2,
	killAt: 8, rejoinAt: 16,
	victim:     2,
	reconfSpan: 2,
}

// elasticRun is one mode's measurement.
type elasticRun struct {
	walls  []time.Duration // per measured iteration
	losses []float64       // true loss entering each measured iteration
	// churn bookkeeping (zero for the undisturbed run)
	retries, fallbacks, evicts, joins int64
	epoch                             uint64
	live                              int
}

// reconfWindow reports whether measured iteration i overlaps a
// reconfiguration under p's churn schedule.
func (p elasticParams) reconfWindow(i int) bool {
	return (i >= p.killAt && i < p.killAt+p.reconfSpan) ||
		(i >= p.rejoinAt && i < p.rejoinAt+p.reconfSpan)
}

// runElasticMode runs the GD loop on a fresh cluster, optionally
// injecting the kill/rejoin schedule, and returns per-iteration walls
// and losses plus the context's membership telemetry.
func runElasticMode(name string, p elasticParams, churn bool) (*elasticRun, error) {
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             name,
		NumExecutors:     p.execs,
		CoresPerExecutor: p.cores,
	})
	if err != nil {
		return nil, err
	}
	defer ctx.Close()

	prof, err := data.ProfileByName("avazu")
	if err != nil {
		return nil, err
	}
	sp := prof.Scaled(p.scale)
	dim := sp.Features
	pts := data.GenClassification(sp.ClassificationSpec(1))
	train := rdd.FromSlice(ctx, pts, p.parts).Cache()

	seqOp := func(snapshot []float64) func(acc []float64, pt mllib.LabeledPoint) []float64 {
		return func(acc []float64, pt mllib.LabeledPoint) []float64 {
			loss := mllib.LogisticGradient{}.Compute(pt.Features, pt.Label, snapshot, acc[:dim])
			acc[dim] += loss
			acc[dim+1]++
			return acc
		}
	}

	run := &elasticRun{}
	w := make([]float64, dim)
	epochBeforeKill := uint64(0)
	joinErr := make(chan error, 1)
	joined := false
	for i := -p.warmup; i < p.iters; i++ {
		if churn && i == p.killAt {
			epochBeforeKill = ctx.MembershipEpoch()
			if err := ctx.KillExecutor(p.victim); err != nil {
				return nil, fmt.Errorf("bench: elastic kill: %w", err)
			}
		}
		if churn && i == p.rejoinAt {
			// The eviction epoch is installed long before rejoinAt (the
			// killAt iteration itself rides through it); the join then runs
			// concurrently with the next iterations, exercising the
			// join-mid-collective path.
			if !ctx.AwaitReconfigured(epochBeforeKill, 30*time.Second) {
				return nil, fmt.Errorf("bench: elastic: eviction epoch never installed")
			}
			joined = true
			go func() {
				id, err := ctx.AddExecutor("bench-replacement")
				if err == nil && id != p.victim {
					err = fmt.Errorf("bench: elastic: replacement adopted slot %d, want %d", id, p.victim)
				}
				joinErr <- err
			}()
		}
		snap := append([]float64(nil), w...)
		start := time.Now()
		agg, err := mllib.AggregateF64Ctx(context.Background(), train, dim+2, seqOp(snap), mllib.StrategySplit, 2, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: elastic iteration %d: %w", i, err)
		}
		wall := time.Since(start)
		count := agg[dim+1]
		if count == 0 {
			return nil, fmt.Errorf("bench: elastic: empty dataset")
		}
		g := agg[:dim]
		for j := range g {
			g[j] /= count
		}
		w, _ = mllib.SimpleUpdater{}.Update(w, g, 1, i+p.warmup+1, 0)
		if i >= 0 {
			run.walls = append(run.walls, wall)
			run.losses = append(run.losses, agg[dim]/count)
		}
	}
	if joined {
		if err := <-joinErr; err != nil {
			return nil, err
		}
	}

	rec := ctx.Metrics()
	run.retries = rec.Count(metrics.CounterElasticRetry)
	run.fallbacks = rec.Count(metrics.CounterRingFallback)
	run.evicts = rec.Count(metrics.CounterExecutorEvict)
	run.joins = rec.Count(metrics.CounterExecutorJoin)
	run.epoch = ctx.MembershipEpoch()
	run.live = ctx.NumLiveExecutors()
	return run, nil
}

// itersToLoss returns the 1-based iteration whose entering loss first
// reached target (0 = never). The 1e-5 relative tolerance sits far
// above float reorder noise (a 3-wide and a 4-wide ring merge partial
// sums in different orders) but below a single iteration's progress,
// so matching counts mean matching trajectories.
func itersToLoss(losses []float64, target float64) int {
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return 0
		}
		if l <= target*(1+1e-5) {
			return i + 1
		}
	}
	return 0
}

// elasticChurn runs both modes and gates the elasticity claims. Split
// from ElasticChurn so tests can run a scaled-down comparison.
func elasticChurn(p elasticParams) (*Report, error) {
	r := &Report{
		Title: "Elastic membership: kill-and-replace mid-training vs undisturbed run",
		Header: []string{"Mode", "Steady p50", "Steady p95", "Reconf max", "Final loss",
			"Iters to target", "Retry/fallback/evict/join"},
		Quantiles: map[string]int64{},
	}
	nochurn, err := runElasticMode("elasticbench-steady", p, false)
	if err != nil {
		return nil, fmt.Errorf("bench: elastic nochurn: %w", err)
	}
	churn, err := runElasticMode("elasticbench-churn", p, true)
	if err != nil {
		return nil, fmt.Errorf("bench: elastic churn: %w", err)
	}

	// The undisturbed final loss is the convergence target both runs
	// must reach; its iteration count is the budget the churned run must
	// match (exact gradients mean the trajectories coincide).
	target := nochurn.losses[len(nochurn.losses)-1]
	for _, m := range []struct {
		key string
		run *elasticRun
	}{{"nochurn", nochurn}, {"churn", churn}} {
		var steady, reconf []time.Duration
		for i, wall := range m.run.walls {
			if m.key == "churn" && p.reconfWindow(i) {
				reconf = append(reconf, wall)
			} else {
				steady = append(steady, wall)
			}
		}
		sort.Slice(steady, func(i, j int) bool { return steady[i] < steady[j] })
		p50 := durQuantile(steady, 0.50)
		p95 := durQuantile(steady, 0.95)
		var reconfMax, reconfSum time.Duration
		for _, wall := range reconf {
			reconfSum += wall
			if wall > reconfMax {
				reconfMax = wall
			}
		}
		var reconfMean time.Duration
		if len(reconf) > 0 {
			reconfMean = reconfSum / time.Duration(len(reconf))
		}
		final := m.run.losses[len(m.run.losses)-1]
		reached := itersToLoss(m.run.losses, target)
		r.AddRow(m.key, fdur(p50), fdur(p95), fdur(reconfMax),
			fmt.Sprintf("%.6f", final), fmt.Sprintf("%d", reached),
			fmt.Sprintf("%d/%d/%d/%d", m.run.retries, m.run.fallbacks, m.run.evicts, m.run.joins))
		pre := "elastic/" + m.key
		r.Quantiles[pre+"/wall_p50_ns"] = int64(p50)
		r.Quantiles[pre+"/wall_p95_ns"] = int64(p95)
		r.Quantiles[pre+"/reconf_max_ns"] = int64(reconfMax)
		r.Quantiles[pre+"/reconf_mean_ns"] = int64(reconfMean)
		r.Quantiles[pre+"/final_loss_micro"] = int64(final * 1e6)
		r.Quantiles[pre+"/iters_to_target"] = int64(reached)
		r.Quantiles[pre+"/elastic_retries"] = m.run.retries
		r.Quantiles[pre+"/ring_fallbacks"] = m.run.fallbacks
		r.Quantiles[pre+"/evicts"] = m.run.evicts
		r.Quantiles[pre+"/joins"] = m.run.joins
		r.Quantiles[pre+"/epoch"] = int64(m.run.epoch)
		r.Quantiles[pre+"/live"] = int64(m.run.live)
	}

	churnSteadyP50 := r.Quantiles["elastic/churn/wall_p50_ns"]
	reconfMax := r.Quantiles["elastic/churn/reconf_max_ns"]
	reconfMean := r.Quantiles["elastic/churn/reconf_mean_ns"]
	ratio := float64(reconfMean) / float64(max64(churnSteadyP50, 1))
	maxRatio := float64(reconfMax) / float64(max64(churnSteadyP50, 1))
	r.Quantiles["elastic/reconf_vs_steady_milli"] = int64(ratio * 1000)
	r.Quantiles["elastic/reconf_max_vs_steady_milli"] = int64(maxRatio * 1000)

	r.AddNote("cluster: %d executors × %d cores; avazu/%d (%d samples × %d features), %d partitions, split-strategy ring aggregation",
		p.execs, p.cores, p.scale, defaultSamples(p), defaultFeatures(p), p.parts)
	r.AddNote("churn schedule: executor %d hard-killed before iteration %d (detector evicts, collective retries against the eviction epoch); replacement joins concurrently from iteration %d and adopts the slot",
		p.victim, p.killAt, p.rejoinAt)
	r.AddNote("reconfiguration window = iterations [kill, kill+%d) ∪ [rejoin, rejoin+%d); steady state is every other iteration of the same churned run",
		p.reconfSpan, p.reconfSpan)
	r.AddNote("claim 1: reconfiguration-iteration time (mean wall across the window) ≤ 3× steady-state p50 — measured %s mean, %s worst single iteration (sanity-bounded at 6×)",
		fx(ratio), fx(maxRatio))
	r.AddNote("claim 2: churned run reaches the undisturbed final loss within the same iteration budget — %d vs %d iterations",
		r.Quantiles["elastic/churn/iters_to_target"], r.Quantiles["elastic/nochurn/iters_to_target"])

	if churn.evicts < 1 || churn.joins < 1 {
		return nil, fmt.Errorf("bench: elastic: churn run recorded evicts=%d joins=%d, expected at least one of each",
			churn.evicts, churn.joins)
	}
	if churn.live != p.execs {
		return nil, fmt.Errorf("bench: elastic: churn run ended with %d live executors, want %d", churn.live, p.execs)
	}
	churnReached := r.Quantiles["elastic/churn/iters_to_target"]
	nochurnReached := r.Quantiles["elastic/nochurn/iters_to_target"]
	if churnReached == 0 {
		return nil, fmt.Errorf("bench: elastic: churned run never reached the undisturbed target loss %.6f (final %.6f)",
			target, churn.losses[len(churn.losses)-1])
	}
	if churnReached != nochurnReached {
		return nil, fmt.Errorf("bench: elastic: churned run reached the target in %d iterations, undisturbed in %d — gradients should be exact across churn",
			churnReached, nochurnReached)
	}
	if ratio > 3 {
		return nil, fmt.Errorf("bench: elastic: reconfiguration-window mean %v is %.2f× steady-state p50 %v, claim requires <= 3×",
			time.Duration(reconfMean), ratio, time.Duration(churnSteadyP50))
	}
	if maxRatio > 6 {
		return nil, fmt.Errorf("bench: elastic: worst reconfiguration iteration %v is %.2f× steady-state p50 %v, sanity bound is 6×",
			time.Duration(reconfMax), maxRatio, time.Duration(churnSteadyP50))
	}
	return r, nil
}

// defaultSamples / defaultFeatures resolve the scaled avazu shape for
// the report notes.
func defaultSamples(p elasticParams) int {
	prof, _ := data.ProfileByName("avazu")
	return prof.Scaled(p.scale).Samples
}

func defaultFeatures(p elasticParams) int {
	prof, _ := data.ProfileByName("avazu")
	return prof.Scaled(p.scale).Features
}

// ElasticChurn runs the full churn comparison; reach it via
// `sparkerbench -only elastic` or `make bench-compare`.
func ElasticChurn() (*Report, error) {
	return elasticChurn(defaultElasticParams)
}
