package metrics

import (
	"context"
	"sort"
	"sync"
)

// Canonical instrument names. Histograms measuring time use the ".ns"
// suffix (nanosecond samples); sizes use ".bytes".
const (
	// HistRingStepNS is the per-step latency of ring collectives
	// (send + recv + fused reduce for one segment on one channel).
	HistRingStepNS = "ring.step.ns"
	// HistRingStepBytes is the total wire bytes of each ring step (the
	// single whole-segment frame, or the sum of the chunk frames of the
	// pipelined path) — after the packed chunk form has shrunk them.
	HistRingStepBytes = "ring.step.bytes"
	// HistRingStepRawBytes is the dense byte equivalent of each ring
	// step of ops that can pack (collective.F64Ops) — what the dense
	// encoder would have sent for the same frames. Observed by every such
	// step, packed or not, so its sum is the volume the algorithm moves
	// and raw/wire the achieved bytes-on-wire reduction.
	HistRingStepRawBytes = "ring.step.raw.bytes"
	// HistRingChunkNS is the per-chunk fused decode-reduce latency of
	// the pipelined ring path.
	HistRingChunkNS = "ring.chunk.reduce.ns"
	// HistRingChunkBytes is the wire size of each pipelined chunk frame.
	HistRingChunkBytes = "ring.chunk.bytes"
	// HistBlockPutNS / HistBlockGetNS time block-store writes and reads
	// (local or remote fetch).
	HistBlockPutNS = "block.put.ns"
	HistBlockGetNS = "block.get.ns"
	// HistBlockPutBytes / HistBlockGetBytes are the block payload sizes.
	HistBlockPutBytes = "block.put.bytes"
	HistBlockGetBytes = "block.get.bytes"
	// GaugeSendQueue is the instantaneous depth of comm sender
	// mailboxes (enqueued, not yet written to the wire).
	GaugeSendQueue = "comm.send.queue"
	// GaugeSchedQueue is the instantaneous number of task attempts
	// queued in the stage scheduler waiting for a free core slot.
	GaugeSchedQueue = "sched.queue.depth"
	// HistSchedTaskNS is the per-attempt wall time of successful tasks
	// as observed by the scheduler (launch to result) — the duration
	// distribution speculation thresholds derive from.
	HistSchedTaskNS = "sched.task.ns"
	// HistSchedStageNS is the submit-to-completion wall time of stages.
	HistSchedStageNS = "sched.stage.ns"
	// HistSchedWaitNS is the queue wait of each launched attempt
	// (enqueue to slot acquisition).
	HistSchedWaitNS = "sched.wait.ns"
	// HistComputeMapNS is the per-partition map-phase kernel time of
	// packed compute (one observation per fused gradient/kmeans pass).
	HistComputeMapNS = "compute.map.ns"
	// GaugeComputePointsPerSec is the most recent packed map-phase
	// throughput per executor (points folded / kernel seconds); the
	// driver-side merged registry sums executors into an aggregate rate.
	GaugeComputePointsPerSec = "compute.points.per.sec"
	// GaugeLiveExecutors is the current number of live executors in the
	// installed membership view (driver registry only).
	GaugeLiveExecutors = "membership.live.executors"
	// GaugeMembershipEpoch is the installed membership epoch (driver
	// registry only) — together with GaugeLiveExecutors this makes
	// reconfiguration visible on any metrics scrape.
	GaugeMembershipEpoch = "membership.epoch"
)

// Registry is a named collection of instruments. Each executor owns
// one (its hot paths observe into it without cross-executor
// contention) and the driver merges them on demand. Get-or-create
// accessors are cheap after first use (RLock + map hit). A nil
// *Registry returns nil instruments, which themselves no-op, so an
// uninstrumented component pays only nil checks.
type Registry struct {
	mu     sync.RWMutex
	hists  map[string]*Histogram
	gauges map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: map[string]*Histogram{}, gauges: map[string]*Gauge{}}
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// HistogramNames returns the sorted names of existing histograms.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the sorted names of existing gauges.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge folds src's instruments into r: histogram snapshots are added,
// gauge values summed (queue depths across executors add naturally).
// Safe to call while src is still being observed into — merges see a
// point-in-time snapshot. No-op when either side is nil.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, name := range src.HistogramNames() {
		r.Histogram(name).Merge(src.Histogram(name).Snapshot())
	}
	for _, name := range src.GaugeNames() {
		r.Gauge(name).Add(src.Gauge(name).Value())
	}
}

// --- context plumbing -------------------------------------------------

type regKey struct{}

// NewContext returns ctx carrying the registry, for layers (like the
// collectives) that only see a context. A nil registry returns ctx
// unchanged.
func NewContext(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, regKey{}, r)
}

// FromContext extracts the registry, or nil.
func FromContext(ctx context.Context) *Registry {
	r, _ := ctx.Value(regKey{}).(*Registry)
	return r
}
