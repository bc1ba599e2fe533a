package mllib

// Chaos: gradient-descent training rides through real membership churn.
// An executor is hard-killed mid-training and a replacement adopts its
// slot a few iterations later while the optimizer loop keeps submitting
// collectives; because a churn-broken aggregation is re-run whole
// against the new epoch (and the IMM re-run is exact when membership is
// stable), every gradient stays exact. The claims, checked against an
// undisturbed twin of the same run: the churned run reaches the twin's
// final loss in the same number of iterations, and elasticity costs
// only iteration time in the iterations that ride through a
// reconfiguration — their mean ≤ 3× the churned run's own steady-state
// p50, the worst single one ≤ 6× (a kill landing mid-collective pays
// the broken attempt, a whole retry and cold-partition recompute).
// Trajectory, accuracy and membership are checked on both compute
// planes; the default packed plane takes its kill mid-iteration. The
// wall-clock bounds are checked per point (PackedOff) only: there a
// partition that moved with the membership costs a re-fold and the
// window measures the membership machinery, while on the packed plane
// the same move also re-packs the partition, about a cold first
// iteration, which these bounds do not cover.
// Runs under the race detector via `make test-chaos` /
// `make chaos-elastic`.

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/rdd"
)

// afterUpdate wraps an Updater with a driver-side hook that runs once
// the given iteration's update is done — the seam between iterations.
type afterUpdate struct {
	Updater
	hook func(iter int)
}

func (u afterUpdate) Update(w, g []float64, step float64, iter int, reg float64) ([]float64, float64) {
	nw, r := u.Updater.Update(w, g, step, iter, reg)
	u.hook(iter)
	return nw, r
}

// itersToLoss returns the 1-based iteration whose loss first reached
// target (0 = never). The 1e-5 relative tolerance sits far above float
// reorder noise (a 3-wide and a 4-wide ring merge partial sums in
// different orders) but below a single iteration's progress, so
// matching counts mean matching trajectories.
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

// churnPoints is a linearly separable sparse set on a deterministic
// lattice, nnz features per point — heavy enough per iteration that the
// fixed costs of a reconfiguration are measured against real work.
func churnPoints(t *testing.T, n, dim, nnz int) []LabeledPoint {
	t.Helper()
	stride := dim / nnz
	hidden := func(j int) float64 { return float64(j*13%7)/7 - 0.45 }
	pts := make([]LabeledPoint, n)
	for i := range pts {
		idx, vals := make([]int32, nnz), make([]float64, nnz)
		margin := 0.0
		for k := range idx {
			j := i%stride + k*stride
			idx[k], vals[k] = int32(j), float64(i*(k+3)%11)/11-0.5
			margin += vals[k] * hidden(j)
		}
		pts[i].Features = sparse(t, dim, idx, vals)
		if margin > 0 {
			pts[i].Label = 1
		}
	}
	return pts
}

func TestChaosElasticTrainingKillAndReplace(t *testing.T) {
	// Both compute planes ride the same churn. The default packed plane
	// takes its kill asynchronously, mid-iteration, so a collective in
	// flight breaks and the moved partitions are re-packed on their new
	// executors; its iteration times are logged, not gated. The per-point
	// plane takes its kill in the seam between iterations and carries the
	// wall-clock claim.
	for _, plane := range []struct {
		name   string
		packed PackedMode
		timed  bool
	}{
		{"packed", PackedAuto, false},
		{"per-point", PackedOff, true},
	} {
		t.Run(plane.name, func(t *testing.T) { chaosKillAndReplace(t, plane.packed, plane.timed) })
	}
}

// chaosKillAndReplace trains an undisturbed twin and a churned run on
// the given compute plane and checks the churned run against the twin.
// timed selects the seam kill and the wall-clock gates; otherwise the
// kill lands half an iteration into iteration killAt.
func chaosKillAndReplace(t *testing.T, packed PackedMode, timed bool) {
	const (
		execs, victim = 4, 2
		n, dim, parts = 24000, 512, 8
		iters         = 18
		// The victim dies at iteration killAt (in the seam before it when
		// timed, inside it otherwise) and the replacement's join is
		// launched in the seam before rejoinAt, so it runs concurrently
		// with the iterations that follow.
		killAt, rejoinAt = 7, 13
	)
	// Iterations [killAt, killAt+2) ∪ [rejoinAt, rejoinAt+2) ride through
	// a reconfiguration; iteration 1 (cache fill, packing) is warmup; the
	// rest of the same run is its steady state.
	reconfWindow := func(iter int) bool {
		return (iter >= killAt && iter < killAt+2) || (iter >= rejoinAt && iter < rejoinAt+2)
	}

	type result struct {
		model *LinearModel
		walls []time.Duration // walls[i] is iteration i+1
		ctx   *rdd.Context
	}
	pts := churnPoints(t, n, dim, 16)
	train := func(name string, churn bool) result {
		ctx, err := rdd.NewContext(rdd.Config{Name: name, NumExecutors: execs, CoresPerExecutor: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctx.Close() })
		res := result{ctx: ctx}

		killed, joined := make(chan error, 1), make(chan error, 1)
		var epochBeforeKill uint64
		last := time.Now()
		hook := func(iter int) {
			wall := time.Since(last)
			res.walls = append(res.walls, wall)
			defer func() { last = time.Now() }() // the churn calls below are not iteration time
			if !churn {
				return
			}
			switch iter + 1 {
			case killAt:
				epochBeforeKill = ctx.MembershipEpoch()
				if timed {
					killed <- ctx.KillExecutor(victim)
					return
				}
				go func() {
					time.Sleep(wall / 2)
					killed <- ctx.KillExecutor(victim)
				}()
			case rejoinAt:
				if err := <-killed; err != nil {
					t.Fatalf("kill: %v", err)
				}
				if !ctx.AwaitReconfigured(epochBeforeKill, 30*time.Second) {
					t.Fatal("kill never installed a new epoch")
				}
				go func() {
					id, err := ctx.AddExecutor("replacement")
					if err == nil && id != victim {
						err = fmt.Errorf("replacement adopted slot %d, want %d", id, victim)
					}
					joined <- err
				}()
			}
		}
		w, losses, err := RunGradientDescent(rdd.FromSlice(ctx, pts, parts).Cache(), LogisticGradient{}, afterUpdate{SimpleUpdater{}, hook},
			make([]float64, dim), GDConfig{Iterations: iters, StepSize: 5, Strategy: StrategySplit, Packed: packed})
		if err != nil {
			t.Fatalf("%s: training: %v", name, err)
		}
		if churn {
			if err := <-joined; err != nil {
				t.Fatal(err)
			}
		}
		res.model = &LinearModel{Weights: w, Losses: losses, Threshold: 0.5}
		return res
	}

	twin := train("ml-elastic-twin", false)
	churned := train("ml-elastic-churn", true)

	// Same trajectory: the undisturbed final loss is the target both
	// runs must reach, in the same number of iterations.
	target := twin.model.Losses[iters-1]
	want, got := itersToLoss(twin.model.Losses, target), itersToLoss(churned.model.Losses, target)
	if got == 0 || got != want {
		t.Fatalf("churned run reached the undisturbed target loss %.6f in %d iterations, undisturbed in %d — gradients should be exact across churn (final %.6f)",
			target, got, want, churned.model.Losses[iters-1])
	}
	if acc := churned.model.Accuracy(pts); acc < 0.9 {
		t.Fatalf("accuracy %v < 0.9 after kill-and-replace", acc)
	}

	// The churn really happened, only to the churned run, and healed.
	count := func(r result, c string) int64 { return r.ctx.Metrics().Count(c) }
	if e, j := count(churned, metrics.CounterExecutorEvict), count(churned, metrics.CounterExecutorJoin); e < 1 || j < 1 {
		t.Fatalf("churned run recorded evicts=%d joins=%d, want at least one of each", e, j)
	}
	if e := count(twin, metrics.CounterExecutorEvict); e != 0 {
		t.Fatalf("undisturbed run evicted %d executors", e)
	}
	if live := churned.ctx.NumLiveExecutors(); live != execs {
		t.Fatalf("live executors = %d after replace, want %d", live, execs)
	}

	// Elasticity costs iteration time only inside the reconfiguration
	// window. The bound holds per point, where a moved partition costs a
	// re-fold; on the packed plane the move also re-packs the partition,
	// about a cold first iteration (1.86–2.50× mean, 3.72–5.86× worst
	// measured, EXPERIMENTS.md "PR 42"), so there the window is logged
	// and not gated.
	var steady []time.Duration
	var reconfSum, reconfMax time.Duration
	reconfN := 0
	for i, wall := range churned.walls {
		switch iter := i + 1; {
		case iter == 1:
		case reconfWindow(iter):
			reconfSum += wall
			reconfN++
			if wall > reconfMax {
				reconfMax = wall
			}
		default:
			steady = append(steady, wall)
		}
	}
	sort.Slice(steady, func(i, j int) bool { return steady[i] < steady[j] })
	p50 := steady[len(steady)/2]
	mean := reconfSum / time.Duration(reconfN)
	t.Logf("steady p50 %v; reconfiguration window mean %v (%.2f×), worst %v (%.2f×); elastic retries %d, ring fallbacks %d",
		p50, mean, float64(mean)/float64(p50), reconfMax, float64(reconfMax)/float64(p50),
		count(churned, metrics.CounterElasticRetry), count(churned, metrics.CounterRingFallback))
	if !timed {
		return
	}
	if mean > 3*p50 {
		t.Fatalf("reconfiguration-window mean %v is %.2f× steady-state p50 %v, claim requires <= 3×", mean, float64(mean)/float64(p50), p50)
	}
	if reconfMax > 6*p50 {
		t.Fatalf("worst reconfiguration iteration %v is %.2f× steady-state p50 %v, sanity bound is 6×", reconfMax, float64(reconfMax)/float64(p50), p50)
	}
}
