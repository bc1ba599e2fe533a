package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"sparker/internal/rdd"
)

const (
	// subRuns is how many times one run sets up a cluster and times
	// steps on it. Every time metric is the median over the sub-runs of
	// the sub-run's own number. The host slows down and recovers in
	// spells of seconds (other guests, stolen time), and a cluster keeps
	// what it was dealt at set-up, so the median of ten short stretches
	// on ten clusters is moved less by one bad spell or one unlucky
	// cluster than the median of one long stretch, and setup_s gets its
	// ten samples on the way.
	subRuns = 10
	// fullRuns is how many checked full runs follow the last sub-run.
	fullRuns = 2
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload reports. Metrics holds
// the end-to-end metrics of an untraced run or the per-layer metrics of
// a traced one.
type result struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Steps     int               `json:"timed_steps"`
	ThirdsMs  [3]float64        `json:"step_ms_median_by_third"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// HostStealPct is the share of the run's CPU time the hypervisor gave
	// to other guests.
	HostStealPct float64 `json:"host_steal_pct"`
	// The rest of an untraced run is for the reader; BENCHMARK.json gates
	// none of it. SubRuns is what each sub-run measured, P90Ms the 90th
	// percentile of all timed steps, FullRunSamplesPerS the throughput of
	// the checked full runs.
	SubRuns            []subRun `json:"sub_runs,omitempty"`
	P90Ms              float64  `json:"iter_ms_p90,omitempty"`
	FullRunSamplesPerS float64  `json:"full_run_samples_per_s,omitempty"`
	// SelfMs is, per span name of a traced run, the time spent in the
	// spans themselves and not in their children.
	SelfMs map[string]float64 `json:"span_self_ms,omitempty"`
}

func newResult(w workload, o options) *result {
	return &result{Workload: w.Name, Why: w.Why, Seed: o.seed, Traced: o.traced, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// fail records one failed operation.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) finish() {
	r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
}

// rusage returns the process's user+system CPU time so far and its
// high-water resident set in MB (Linux reports ru_maxrss in KiB).
func rusage() (cpu time.Duration, peakRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024, nil
}

// timedSteps runs the closed loop on c: one client, the next step
// issued when the previous returned, until deadline has passed and
// least steps are done. A step that errors is a failed operation and
// contributes no sample. It returns the steps' wall clocks in ms.
func timedSteps(c *cluster, r *result, least int, deadline time.Time) []float64 {
	var steps []float64
	for n := 0; n < least || time.Now().Before(deadline); n++ {
		r.Attempted++
		d, err := c.step()
		if err != nil {
			r.fail(fmt.Errorf("step %d: %w", r.Attempted, err))
			continue
		}
		steps = append(steps, ms(d))
	}
	return steps
}

// checkedFullRuns trains the full run fullRuns times and checks every
// loss history against want, the sequential reference's. It returns the
// wall clock of the runs that completed, their number, and the largest
// relative loss error seen.
func checkedFullRuns(c *cluster, r *result, want []float64) (wall time.Duration, completed int, relErr float64) {
	for n := 0; n < fullRuns; n++ {
		r.Attempted++
		losses, d, err := c.fullRun()
		if err != nil {
			r.fail(fmt.Errorf("full run %d: %w", n, err))
			continue
		}
		wall += d
		completed++
		e, err := checkLosses(losses, want)
		if err != nil {
			r.fail(fmt.Errorf("full run %d: %w", n, err))
		}
		relErr = max(relErr, e)
	}
	return wall, completed, relErr
}

// subRun is what one sub-run of an untraced run measured: the four
// time metrics on one cluster.
type subRun struct {
	Steps        int     `json:"timed_steps"`
	SetUpS       float64 `json:"setup_s"`
	IterMsP50    float64 `json:"iter_ms_p50"`
	SamplesPerS  float64 `json:"samples_per_s"` // mean-based, so GC and tail cost show
	CPUMsPerIter float64 `json:"cpu_ms_per_iter"`
	thirdsMs     [3]float64
}

// runUntraced measures the end-to-end metrics of one workload. It
// configures no Tracer, EventLog or Obsv and records no spans.
func runUntraced(w workload, o options) (*result, error) {
	r := newResult(w, o)
	points := w.points(o.seed)
	want := referenceLosses(points, w.Features, fullRunIterations)

	// Every sub-run has a tenth of -seconds for its set-up and its steps.
	// The collection before it is not timed and keeps the last cluster's
	// garbage out of this one's footprint.
	slot := o.share(1.0 / subRuns)
	least := (o.floors.steps + subRuns - 1) / subRuns
	var all []float64
	var fullWall time.Duration
	var completed int
	for i := 0; i < subRuns; i++ {
		runtime.GC()
		start := time.Now()
		c, err := setUp(w, points, rdd.Config{})
		if err != nil {
			return nil, err
		}
		setUpS := time.Since(start).Seconds()
		cpu0, _, err := rusage()
		if err != nil {
			c.close()
			return nil, err
		}
		stepsStart := time.Now()
		steps := timedSteps(c, r, least, start.Add(slot))
		stepsWall := time.Since(stepsStart)
		cpu1, _, err := rusage()
		if err != nil {
			c.close()
			return nil, err
		}
		if i == subRuns-1 {
			fullWall, completed, _ = checkedFullRuns(c, r, want)
		}
		c.close()
		if len(steps) == 0 {
			return nil, fmt.Errorf("every timed step of sub-run %d failed: %v", i, r.Errors)
		}
		all = append(all, steps...)
		r.SubRuns = append(r.SubRuns, subRun{
			Steps:        len(steps),
			SetUpS:       setUpS,
			IterMsP50:    median(steps),
			SamplesPerS:  float64(len(steps)*len(points)) / stepsWall.Seconds(),
			CPUMsPerIter: ms(cpu1-cpu0) / float64(len(steps)),
			thirdsMs:     thirds(steps),
		})
	}
	_, rss, err := rusage()
	if err != nil {
		return nil, err
	}

	// across returns the median over the sub-runs of f.
	across := func(f func(subRun) float64) float64 {
		var vs []float64
		for _, s := range r.SubRuns {
			vs = append(vs, f(s))
		}
		return median(vs)
	}
	r.Steps = len(all)
	for third := range r.ThirdsMs {
		r.ThirdsMs[third] = across(func(s subRun) float64 { return s.thirdsMs[third] })
	}
	r.set("setup_s", across(func(s subRun) float64 { return s.SetUpS }))
	r.set("iter_ms_p50", across(func(s subRun) float64 { return s.IterMsP50 }))
	r.set("samples_per_s", across(func(s subRun) float64 { return s.SamplesPerS }))
	r.set("cpu_ms_per_iter", across(func(s subRun) float64 { return s.CPUMsPerIter }))
	r.set("peak_rss_mb", rss)
	r.P90Ms = quantile(all, 0.9)
	if completed > 0 {
		r.FullRunSamplesPerS = float64(completed*fullRunIterations*len(points)) / fullWall.Seconds()
	}
	r.finish()
	return r, nil
}
