// Package metrics provides the phase-level time accounting used to
// reproduce the paper's end-to-end decompositions (Figures 2–4, 18):
// driver time, non-aggregation compute, aggregation compute and
// aggregation reduce.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical phase names used by the engine and the harness.
const (
	PhaseDriver     = "driver"
	PhaseNonAgg     = "non-agg"
	PhaseAggCompute = "agg-compute"
	PhaseAggReduce  = "agg-reduce"
)

// Canonical counter names used by the engine.
const (
	// CounterRingFallback counts ring aggregations re-run as StrategyIMM
	// after a classified collective failure on a stable epoch.
	CounterRingFallback = "ring-fallback"
	// CounterPeerFailure counts classified peer failures (timeouts and
	// severed connections) observed by aggregation stages.
	CounterPeerFailure = "peer-failure"
	// CounterResultMalformed counts result frames the driver could not
	// decode — previously a silent drop in the result reader.
	CounterResultMalformed = "result-malformed"
	// CounterResultDropped counts decoded results the scheduler's event
	// channel could not absorb. The channel is sized for every slot plus
	// duplicated frames, so a non-zero count indicates a protocol bug.
	CounterResultDropped = "result-dropped"
	// CounterSpecLaunched counts speculative duplicate attempts started
	// for straggling tasks.
	CounterSpecLaunched = "spec-launched"
	// CounterSpecWon counts stages' tasks whose speculative duplicate
	// finished before the straggling original.
	CounterSpecWon = "spec-won"
	// CounterSpecLost counts late attempts that finished after another
	// attempt of the same task had already won.
	CounterSpecLost = "spec-lost"
	// CounterSpecMigrated counts queued tasks re-placed from a busy
	// executor to an idle one by the straggler scan.
	CounterSpecMigrated = "spec-migrated"
	// CounterExecutorJoin counts executors admitted into the membership
	// (dead-slot adoption and table growth alike).
	CounterExecutorJoin = "executor-join"
	// CounterExecutorLeave counts voluntary executor departures.
	CounterExecutorLeave = "executor-leave"
	// CounterExecutorEvict counts failure-detector evictions (heartbeat
	// deadline or severed control connection).
	CounterExecutorEvict = "executor-evict"
	// CounterElasticRetry counts collectives that failed against a
	// membership epoch that then changed, and were retried whole against
	// the new epoch.
	CounterElasticRetry = "elastic-retry"
	// CounterCheckpointRepair counts checkpoint repair passes run after
	// a membership change (replica promotion, lineage recompute, and
	// replica restoration are one pass).
	CounterCheckpointRepair = "checkpoint-repair"
)

// Recorder accumulates named durations and event counters. It is safe
// for concurrent use.
type Recorder struct {
	mu sync.Mutex
	m  map[string]time.Duration
	c  map[string]int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{m: map[string]time.Duration{}, c: map[string]int64{}}
}

// Inc increments the named counter by one.
func (r *Recorder) Inc(counter string) {
	r.mu.Lock()
	r.c[counter]++
	r.mu.Unlock()
}

// Count returns the value of the named counter.
func (r *Recorder) Count(counter string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c[counter]
}

// Counters returns a copy of the counter map.
func (r *Recorder) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.c))
	for k, v := range r.c {
		out[k] = v
	}
	return out
}

// Add accumulates d into the named phase.
func (r *Recorder) Add(phase string, d time.Duration) {
	r.mu.Lock()
	r.m[phase] += d
	r.mu.Unlock()
}

// Time runs f, charging its wall time to phase. The charge happens in
// a defer so a panicking f still records the time it consumed before
// unwinding (the panic itself propagates unchanged).
func (r *Recorder) Time(phase string, f func()) {
	start := time.Now()
	defer func() { r.Add(phase, time.Since(start)) }()
	f()
}

// Get returns the accumulated duration of a phase.
func (r *Recorder) Get(phase string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[phase]
}

// Total returns the sum over all phases.
func (r *Recorder) Total() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t time.Duration
	for _, d := range r.m {
		t += d
	}
	return t
}

// Snapshot returns a copy of the phase map.
func (r *Recorder) Snapshot() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration, len(r.m))
	for k, v := range r.m {
		out[k] = v
	}
	return out
}

// Reset clears all phases and counters.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.m = map[string]time.Duration{}
	r.c = map[string]int64{}
	r.mu.Unlock()
}

// String renders phases then counters, each sorted by name, for logs
// and test output.
func (r *Recorder) String() string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%v", k, snap[k])
	}
	counts := r.Counters()
	ckeys := make([]string, 0, len(counts))
	for k := range counts {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	for _, k := range ckeys {
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, counts[k])
	}
	return b.String()
}
