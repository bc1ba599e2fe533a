package obsv

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/trace"
)

// TriggerP99Regression is the anomaly the Observer detects itself: the
// windowed p99 of ring-step latency exceeding Config.RegressionFactor
// times the rolling EWMA baseline.
const TriggerP99Regression = "p99-regression"

// DefaultTriggers returns the marker names that trip a postmortem dump
// when Config.Triggers is nil: every guardrail the engine records as a
// counter marker, plus the Observer's own latency-regression detector.
func DefaultTriggers() []string {
	return []string{
		metrics.CounterRingFallback,
		metrics.CounterPeerFailure,
		metrics.CounterSpecLaunched,
		metrics.CounterJobFailed,
		metrics.CounterJobCancelled,
		metrics.CounterExecutorEvict,
		TriggerP99Regression,
	}
}

// Config tunes an Observer. The zero value is usable: default ring
// size, bundles under os.TempDir()/sparker-bundles, 2s snapshots, 10s
// per-trigger cooldown, 3x regression factor.
type Config struct {
	// RingSize is the per-ring record capacity (driver and each
	// executor). 0 means DefaultRingSize.
	RingSize int
	// BundleDir receives postmortem bundle files. Empty means
	// <tmp>/sparker-bundles.
	BundleDir string
	// SnapshotInterval is the metric-snapshot period. 0 means 2s.
	SnapshotInterval time.Duration
	// Cooldown suppresses repeat dumps of the same trigger name. 0
	// means 10s; negative disables suppression.
	Cooldown time.Duration
	// RegressionFactor trips TriggerP99Regression when the windowed
	// step p99 exceeds factor x the rolling baseline. 0 means 3.0.
	RegressionFactor float64
	// RegressionMinSamples is the minimum windowed step count before a
	// window participates in regression detection. 0 means 64.
	RegressionMinSamples int64
	// MaxSnapshots bounds the retained pre-trigger snapshot history. 0
	// means 8.
	MaxSnapshots int
	// Triggers overrides the marker names that trip a dump; nil means
	// DefaultTriggers().
	Triggers []string
	// OnBundle, when set, is called from the monitor goroutine after
	// each bundle is written (test and CLI hook).
	OnBundle func(path string, b *Bundle)
}

func (c *Config) fill() {
	if c.BundleDir == "" {
		c.BundleDir = filepath.Join(os.TempDir(), "sparker-bundles")
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 2 * time.Second
	}
	if c.Cooldown == 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.RegressionFactor <= 0 {
		c.RegressionFactor = 3.0
	}
	if c.RegressionMinSamples <= 0 {
		c.RegressionMinSamples = 64
	}
	if c.MaxSnapshots <= 0 {
		c.MaxSnapshots = 8
	}
	if c.Triggers == nil {
		c.Triggers = DefaultTriggers()
	}
}

// Geometry is the cluster shape captured in every bundle.
type Geometry struct {
	Name       string `json:"name,omitempty"`
	Executors  int    `json:"executors"`
	Cores      int    `json:"cores,omitempty"`
	ExecOfRank []int  `json:"exec_of_rank,omitempty"`
}

// MetricsSnapshot is one periodic sample of cluster health: windowed
// ring-step latency quantiles (since the previous snapshot), cumulative
// counters, and process resource stats.
type MetricsSnapshot struct {
	TimeNS     int64            `json:"t"`
	StepCount  int64            `json:"step_count"` // steps in this window
	StepP50NS  int64            `json:"step_p50_ns"`
	StepP99NS  int64            `json:"step_p99_ns"`
	CumSteps   int64            `json:"cum_steps"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	HeapAlloc  uint64           `json:"heap_alloc"`
	TotalAlloc uint64           `json:"total_alloc"`
	NumGC      uint32           `json:"num_gc"`
	Goroutines int              `json:"goroutines"`
}

// ExecDump is one executor's ring contents as collected into a bundle.
// Source records how it got there: "transport" when fetched by a
// collection stage over the live cluster, "in-process" when read
// directly (fallback when the cluster is too broken to run a stage).
type ExecDump struct {
	Exec   int      `json:"exec"`
	Source string   `json:"source"`
	Err    string   `json:"err,omitempty"`
	Ring   RingDump `json:"ring"`
}

// Binding connects an Observer to a live cluster: the geometry, a
// merged-metrics source, and a collector that fetches per-executor ring
// contents over the transport. Installed by rdd.NewContext.
type Binding struct {
	Cluster Geometry
	// Metrics returns the cluster-wide merged registry and the driver
	// recorder (counters). Called from the monitor goroutine.
	Metrics func() (*metrics.Registry, *metrics.Recorder)
	// CollectExecRings fetches every executor's ring dump, normally by
	// running a one-task-per-executor stage. Called from the monitor
	// goroutine; may be slow. Nil falls back to in-process snapshots.
	CollectExecRings func() []ExecDump
}

type tripReq struct {
	name, detail string
	timeNS       int64
}

// Observer owns the flight-recorder rings, watches for anomaly
// triggers, and serializes postmortem bundles from a dedicated monitor
// goroutine (so a trigger raised on the scheduler loop never blocks on
// a collection stage it would itself have to schedule). Nil-safe: all
// methods no-op on a nil *Observer.
type Observer struct {
	cfg      Config
	driver   *Ring
	triggers map[string]struct{}

	mu       sync.Mutex
	binding  Binding
	execs    []*Ring
	bound    bool
	lastTrip map[string]int64 // trigger name -> last dump UnixNano
	snaps    []MetricsSnapshot
	prevHist metrics.HistSnapshot
	baseline float64 // rolling EWMA of windowed step p99, ns
	bundles  []string
	quit     chan struct{}
	done     chan struct{}

	trips      chan tripReq
	enqueued   atomic.Int64
	processed  atomic.Int64
	suppressed atomic.Int64
}

// New returns an Observer with its driver ring allocated. It records
// immediately; anomaly dumps and periodic snapshots start at Bind.
func New(cfg Config) *Observer {
	cfg.fill()
	o := &Observer{
		cfg:      cfg,
		driver:   NewRing(cfg.RingSize),
		triggers: make(map[string]struct{}, len(cfg.Triggers)),
		lastTrip: map[string]int64{},
		trips:    make(chan tripReq, 16),
	}
	for _, t := range cfg.Triggers {
		o.triggers[t] = struct{}{}
	}
	return o
}

// DriverRing returns the driver-side ring (never nil on a live
// Observer; nil on a nil Observer, which is itself a valid no-op ring).
func (o *Observer) DriverRing() *Ring {
	if o == nil {
		return nil
	}
	return o.driver
}

// ExecRing returns executor i's ring, nil before Bind or out of range
// (a nil *Ring no-ops, so callers need no guard).
func (o *Observer) ExecRing(i int) *Ring {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if i < 0 || i >= len(o.execs) {
		return nil
	}
	return o.execs[i]
}

// Bind connects the Observer to a live cluster: allocates one ring per
// executor and starts the monitor goroutine (periodic snapshots,
// regression detection, bundle dumps). A second Bind replaces the
// binding. Unbind (or rdd Context.Close) stops the monitor.
func (o *Observer) Bind(b Binding) {
	if o == nil {
		return
	}
	o.Unbind()
	o.mu.Lock()
	o.binding = b
	o.execs = make([]*Ring, b.Cluster.Executors)
	for i := range o.execs {
		o.execs[i] = NewRing(o.cfg.RingSize)
	}
	o.bound = true
	o.quit = make(chan struct{})
	o.done = make(chan struct{})
	quit, done := o.quit, o.done
	o.mu.Unlock()
	// Synchronous first snapshot: any trigger raised after Bind is
	// guaranteed a pre-trigger metric snapshot in its bundle.
	o.snapshot()
	go o.monitor(quit, done)
}

// EnsureExecRings grows the per-executor ring table through n slots —
// the elastic-membership hook: a join that outgrows the boot executor
// count gets its own flight-recorder ring instead of silently dropping
// records (ExecRing would return nil for the new slot). Existing rings
// and their contents are untouched; shrinking never happens, a dead
// slot's ring stays readable for postmortems.
func (o *Observer) EnsureExecRings(n int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	for len(o.execs) < n {
		o.execs = append(o.execs, NewRing(o.cfg.RingSize))
	}
	o.mu.Unlock()
}

// Unbind stops the monitor goroutine, draining any queued trigger
// dumps first (their executor collection falls back in-process if the
// cluster is already gone). Rings keep their contents.
func (o *Observer) Unbind() {
	if o == nil {
		return
	}
	o.mu.Lock()
	if !o.bound {
		o.mu.Unlock()
		return
	}
	o.bound = false
	quit, done := o.quit, o.done
	o.mu.Unlock()
	close(quit)
	<-done
}

// Close is Unbind, for defer symmetry.
func (o *Observer) Close() { o.Unbind() }

// Marker records a marker into the driver ring and, when the name is a
// configured trigger, queues a postmortem dump. This is the tee target
// of rdd.Context.RecordMarker and the scheduler's marker path.
func (o *Observer) Marker(name, detail string) {
	if o == nil {
		return
	}
	o.driver.Marker(name, detail)
	if _, ok := o.triggers[name]; ok {
		o.trip(name, detail)
	}
}

// Phase records a coarse engine phase into the driver ring (the tee
// target of rdd.Context.RecordPhase).
func (o *Observer) Phase(name string, d time.Duration, detail string) {
	if o == nil {
		return
	}
	o.driver.Phase(name, d, detail)
}

// ExportSpan implements trace.Exporter: finished spans are retained in
// the flight recorder, routed to the owning executor's ring when the
// span carries an "exec" attribute (task spans do), otherwise to the
// driver ring.
func (o *Observer) ExportSpan(s trace.Span) {
	if o == nil {
		return
	}
	if v, ok := s.Attr("exec"); ok {
		if i, err := strconv.Atoi(v); err == nil {
			if r := o.ExecRing(i); r != nil {
				r.Span(s)
				return
			}
		}
	}
	o.driver.Span(s)
}

// Trip manually queues a postmortem dump (also the internal trigger
// path). Dumps are asynchronous — serialized by the monitor goroutine
// — and rate-limited per trigger name by Config.Cooldown.
func (o *Observer) Trip(name, detail string) {
	if o == nil {
		return
	}
	o.driver.Marker(name, detail)
	o.trip(name, detail)
}

func (o *Observer) trip(name, detail string) {
	now := time.Now().UnixNano()
	if o.cfg.Cooldown > 0 {
		o.mu.Lock()
		last := o.lastTrip[name]
		if now-last < int64(o.cfg.Cooldown) {
			o.mu.Unlock()
			o.suppressed.Add(1)
			return
		}
		o.lastTrip[name] = now
		o.mu.Unlock()
	}
	select {
	case o.trips <- tripReq{name: name, detail: detail, timeNS: now}:
		o.enqueued.Add(1)
	default:
		o.suppressed.Add(1)
	}
}

// Flush blocks until every queued trigger dump has been written (or
// the timeout elapses); reports whether the queue drained. CLIs call
// this before exit so chaos-induced bundles hit disk.
func (o *Observer) Flush(timeout time.Duration) bool {
	if o == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if o.processed.Load() >= o.enqueued.Load() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return o.processed.Load() >= o.enqueued.Load()
}

// Bundles returns the paths of every bundle written so far.
func (o *Observer) Bundles() []string {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.bundles...)
}

// Status is the Observer's live state for /debug/sparker/obsv.
type Status struct {
	Bound         bool              `json:"bound"`
	RingSize      int               `json:"ring_size"`
	DriverRecords uint64            `json:"driver_records"`
	Executors     int               `json:"executors"`
	Triggers      []string          `json:"triggers"`
	BaselineP99NS int64             `json:"baseline_p99_ns"`
	Snapshots     int               `json:"snapshots"`
	LastSnapshot  *MetricsSnapshot  `json:"last_snapshot,omitempty"`
	Bundles       []string          `json:"bundles,omitempty"`
	Suppressed    int64             `json:"suppressed_trips"`
	LastTrip      map[string]string `json:"last_trip,omitempty"`
}

// Status snapshots the Observer for the debug plane.
func (o *Observer) Status() Status {
	if o == nil {
		return Status{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	st := Status{
		Bound:         o.bound,
		RingSize:      len(o.driver.recs),
		DriverRecords: o.driver.Snapshot().Total,
		Executors:     len(o.execs),
		Triggers:      append([]string(nil), o.cfg.Triggers...),
		BaselineP99NS: int64(o.baseline),
		Snapshots:     len(o.snaps),
		Bundles:       append([]string(nil), o.bundles...),
		Suppressed:    o.suppressed.Load(),
	}
	if n := len(o.snaps); n > 0 {
		last := o.snaps[n-1]
		st.LastSnapshot = &last
	}
	if len(o.lastTrip) > 0 {
		st.LastTrip = make(map[string]string, len(o.lastTrip))
		for k, v := range o.lastTrip {
			st.LastTrip[k] = time.Unix(0, v).Format(time.RFC3339Nano)
		}
	}
	return st
}

// --- monitor ----------------------------------------------------------

func (o *Observer) monitor(quit, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(o.cfg.SnapshotInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			o.snapshot()
		case tr := <-o.trips:
			o.dump(tr)
			o.processed.Add(1)
		case <-quit:
			for {
				select {
				case tr := <-o.trips:
					o.dump(tr)
					o.processed.Add(1)
				default:
					return
				}
			}
		}
	}
}

// snapshot takes one periodic metric sample, retains it, records it in
// the driver ring, and runs the p99-regression detector.
func (o *Observer) snapshot() {
	o.mu.Lock()
	met := o.binding.Metrics
	prev := o.prevHist
	o.mu.Unlock()

	var cur metrics.HistSnapshot
	var counters map[string]int64
	if met != nil {
		reg, rec := met()
		if reg != nil {
			cur = reg.Histogram(metrics.HistRingStepNS).Snapshot()
		}
		if rec != nil {
			counters = rec.Counters()
		}
	}
	delta := histDelta(cur, prev)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := MetricsSnapshot{
		TimeNS:     time.Now().UnixNano(),
		StepCount:  delta.Count,
		StepP50NS:  delta.Quantile(0.5),
		StepP99NS:  delta.Quantile(0.99),
		CumSteps:   cur.Count,
		Counters:   counters,
		HeapAlloc:  ms.HeapAlloc,
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
		Goroutines: runtime.NumGoroutine(),
	}
	o.driver.put(Record{
		TimeNS: snap.TimeNS, Kind: KindSnapshot,
		A: snap.StepCount, B: snap.StepP50NS, C: snap.StepP99NS, D: int64(snap.HeapAlloc),
	})

	var regress bool
	var base float64
	o.mu.Lock()
	o.prevHist = cur
	o.snaps = append(o.snaps, snap)
	if len(o.snaps) > o.cfg.MaxSnapshots {
		o.snaps = o.snaps[len(o.snaps)-o.cfg.MaxSnapshots:]
	}
	if delta.Count >= o.cfg.RegressionMinSamples {
		p99 := float64(snap.StepP99NS)
		base = o.baseline
		if base > 0 && p99 > o.cfg.RegressionFactor*base {
			regress = true
		}
		// EWMA update after the check so a regressed window cannot
		// launder itself into the baseline all at once.
		if o.baseline == 0 {
			o.baseline = p99
		} else {
			o.baseline = 0.7*o.baseline + 0.3*p99
		}
	}
	o.mu.Unlock()

	if regress {
		detail := fmt.Sprintf("windowed p99 %dns > %.1fx baseline %.0fns (n=%d)",
			snap.StepP99NS, o.cfg.RegressionFactor, base, snap.StepCount)
		o.driver.Marker(TriggerP99Regression, detail)
		// Already on the monitor goroutine: dump synchronously, but
		// still respect the cooldown bookkeeping.
		now := time.Now().UnixNano()
		o.mu.Lock()
		ok := o.cfg.Cooldown <= 0 || now-o.lastTrip[TriggerP99Regression] >= int64(o.cfg.Cooldown)
		if ok {
			o.lastTrip[TriggerP99Regression] = now
		}
		o.mu.Unlock()
		if ok {
			o.dump(tripReq{name: TriggerP99Regression, detail: detail, timeNS: now})
		} else {
			o.suppressed.Add(1)
		}
	}
}

// histDelta subtracts prev from cur bucket-wise, producing the
// windowed distribution between two cumulative snapshots. Min is
// unknowable for a window, so it is left 0; Quantile's clamp handles
// that.
func histDelta(cur, prev metrics.HistSnapshot) metrics.HistSnapshot {
	var d metrics.HistSnapshot
	d.Count = cur.Count - prev.Count
	d.Sum = cur.Sum - prev.Sum
	d.Max = cur.Max
	if d.Count <= 0 {
		return metrics.HistSnapshot{}
	}
	for i := range cur.Buckets {
		if b := cur.Buckets[i] - prev.Buckets[i]; b > 0 {
			d.Buckets[i] = b
		}
	}
	return d
}

// dump builds and writes one postmortem bundle.
func (o *Observer) dump(tr tripReq) {
	b := o.buildBundle(tr)
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		o.driver.Marker("obsv-bundle-error", err.Error())
		return
	}
	if err := os.MkdirAll(o.cfg.BundleDir, 0o755); err != nil {
		o.driver.Marker("obsv-bundle-error", err.Error())
		return
	}
	path := filepath.Join(o.cfg.BundleDir,
		fmt.Sprintf("bundle-%s-%d.json", sanitizeName(tr.name), tr.timeNS))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		o.driver.Marker("obsv-bundle-error", err.Error())
		return
	}
	o.mu.Lock()
	o.bundles = append(o.bundles, path)
	o.mu.Unlock()
	if o.cfg.OnBundle != nil {
		o.cfg.OnBundle(path, b)
	}
}

func (o *Observer) buildBundle(tr tripReq) *Bundle {
	o.mu.Lock()
	bind := o.binding
	snaps := append([]MetricsSnapshot(nil), o.snaps...)
	baseline := int64(o.baseline)
	execs := append([]*Ring(nil), o.execs...)
	o.mu.Unlock()

	b := &Bundle{
		Version:       BundleVersion,
		Trigger:       Trigger{Name: tr.name, Detail: tr.detail, TimeNS: tr.timeNS},
		WrittenNS:     time.Now().UnixNano(),
		Cluster:       bind.Cluster,
		BaselineP99NS: baseline,
		Snapshots:     snaps,
	}
	if bind.Metrics != nil {
		if _, rec := bind.Metrics(); rec != nil {
			b.Counters = rec.Counters()
		}
	}
	// Executor rings: over the transport when the cluster can still run
	// a stage, falling back to reading the driver-resident rings
	// directly (same process in this reproduction) when it cannot.
	if bind.CollectExecRings != nil {
		b.Executors = bind.CollectExecRings()
	}
	if b.Executors == nil {
		for i, r := range execs {
			b.Executors = append(b.Executors, ExecDump{Exec: i, Source: "in-process", Ring: r.Snapshot()})
		}
	}
	// Driver ring last so it includes any markers the collection
	// itself recorded.
	b.Driver = o.driver.Snapshot()
	return b
}

func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, s)
}
