package obsv

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparker/internal/metrics"
	"sparker/internal/trace"
)

func TestRingWrapAndSnapshot(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Step("step", int64(i), 0, uint32(i), 0, i)
	}
	d := r.Snapshot()
	if d.Total != 7 || d.Dropped != 3 || len(d.Records) != 4 {
		t.Fatalf("dump total=%d dropped=%d len=%d, want 7/3/4", d.Total, d.Dropped, len(d.Records))
	}
	for i, rec := range d.Records {
		if want := int64(3 + i); rec.A != want {
			t.Fatalf("record %d has A=%d, want %d (oldest-first)", i, rec.A, want)
		}
	}
	if r.LastEpoch() != 6 {
		t.Fatalf("LastEpoch=%d, want 6", r.LastEpoch())
	}
}

func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Step("x", 1, 2, 3, 0, 0)
	r.Marker("m", "")
	r.Phase("p", time.Second, "")
	r.Span(trace.Span{})
	r.Profile("pr", 0, 0, 0, 0)
	if d := r.Snapshot(); d.Total != 0 || len(d.Records) != 0 {
		t.Fatalf("nil ring snapshot not empty: %+v", d)
	}
	var o *Observer
	o.Marker("ring-fallback", "")
	o.Phase("driver", time.Second, "")
	o.ExportSpan(trace.Span{})
	o.Bind(Binding{})
	o.Unbind()
	if !o.Flush(time.Millisecond) {
		t.Fatal("nil observer Flush should report drained")
	}
}

func TestStepRecordAllocFree(t *testing.T) {
	r := NewRing(64)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Step("reduce-scatter", 1234, 4096, 7, 1, 2)
	}); allocs != 0 {
		t.Fatalf("Ring.Step allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Marker("ring-fallback", "cause")
	}); allocs != 0 {
		t.Fatalf("Ring.Marker allocates %.1f per op, want 0", allocs)
	}
}

// fakeBinding returns a binding over a private registry/recorder pair.
func fakeBinding(execs int) (Binding, *metrics.Registry, *metrics.Recorder) {
	reg := metrics.NewRegistry()
	rec := metrics.NewRecorder()
	return Binding{
		Cluster: Geometry{Name: "test", Executors: execs, Cores: 2},
		Metrics: func() (*metrics.Registry, *metrics.Recorder) { return reg, rec },
	}, reg, rec
}

func TestMarkerTriggerProducesValidBundle(t *testing.T) {
	dir := t.TempDir()
	o := New(Config{BundleDir: dir, SnapshotInterval: time.Hour})
	bind, _, rec := fakeBinding(2)
	o.Bind(bind)
	defer o.Unbind()

	// A correlated span pair routed to an executor ring and the driver.
	o.ExportSpan(trace.Span{TraceID: 9, SpanID: 10, Name: "stage", Start: 1, End: 2})
	o.ExportSpan(trace.Span{
		TraceID: 9, SpanID: 11, ParentID: 10, Name: "task", Start: 2, End: 3,
		Attrs: []trace.Attr{{Key: "exec", Val: "1"}},
	})
	rec.Inc(metrics.CounterRingFallback)
	o.Marker(metrics.CounterRingFallback, "rank 1: peer failure")
	if !o.Flush(5 * time.Second) {
		t.Fatal("trip queue did not drain")
	}
	paths := o.Bundles()
	if len(paths) != 1 {
		t.Fatalf("got %d bundles, want 1: %v", len(paths), paths)
	}
	if base := filepath.Base(paths[0]); !strings.HasPrefix(base, "bundle-ring-fallback-") {
		t.Fatalf("unexpected bundle filename %q", base)
	}
	b, err := Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("bundle invalid: %v", err)
	}
	if b.Trigger.Name != metrics.CounterRingFallback || b.Trigger.Detail == "" {
		t.Fatalf("bad trigger %+v", b.Trigger)
	}
	if b.Counters[metrics.CounterRingFallback] != 1 {
		t.Fatalf("counters not captured: %v", b.Counters)
	}
	if len(b.Executors) != 2 || b.Executors[1].Ring.Total != 1 {
		t.Fatalf("executor rings not collected: %+v", b.Executors)
	}
	if b.Executors[0].Source != "in-process" {
		t.Fatalf("fallback collection source = %q", b.Executors[0].Source)
	}
	if len(b.Snapshots) == 0 || b.Snapshots[0].TimeNS > b.Trigger.TimeNS {
		t.Fatalf("missing pre-trigger snapshot: %+v", b.Snapshots)
	}
}

func TestCooldownSuppressesRepeatDumps(t *testing.T) {
	o := New(Config{BundleDir: t.TempDir(), SnapshotInterval: time.Hour, Cooldown: time.Hour})
	bind, _, _ := fakeBinding(1)
	o.Bind(bind)
	defer o.Unbind()
	o.ExportSpan(trace.Span{TraceID: 1, SpanID: 2, ParentID: 3, Name: "s"})
	for i := 0; i < 5; i++ {
		o.Marker(metrics.CounterPeerFailure, "again")
	}
	if !o.Flush(5 * time.Second) {
		t.Fatal("trip queue did not drain")
	}
	if got := len(o.Bundles()); got != 1 {
		t.Fatalf("cooldown allowed %d bundles, want 1", got)
	}
	if o.Status().Suppressed != 4 {
		t.Fatalf("suppressed = %d, want 4", o.Status().Suppressed)
	}
}

func TestNonTriggerMarkerDoesNotDump(t *testing.T) {
	o := New(Config{BundleDir: t.TempDir(), SnapshotInterval: time.Hour})
	bind, _, _ := fakeBinding(1)
	o.Bind(bind)
	defer o.Unbind()
	o.Marker("spec-won", "benign")
	o.Flush(time.Second)
	if got := len(o.Bundles()); got != 0 {
		t.Fatalf("benign marker produced %d bundles", got)
	}
}

func TestP99RegressionTrips(t *testing.T) {
	o := New(Config{
		BundleDir:            t.TempDir(),
		SnapshotInterval:     time.Hour, // snapshots driven manually
		RegressionMinSamples: 8,
		RegressionFactor:     3,
	})
	bind, reg, _ := fakeBinding(1)
	o.mu.Lock()
	o.binding = bind
	o.mu.Unlock()
	o.ExportSpan(trace.Span{TraceID: 1, SpanID: 2, ParentID: 3, Name: "s"})

	h := reg.Histogram(metrics.HistRingStepNS)
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	o.snapshot() // establishes the baseline window
	for i := 0; i < 100; i++ {
		h.Observe(1100)
	}
	o.snapshot() // healthy window, no trip
	if got := len(o.Bundles()); got != 0 {
		t.Fatalf("healthy window tripped: %d bundles", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1 << 20)
	}
	o.snapshot() // ~1000x regression
	paths := o.Bundles()
	if len(paths) != 1 {
		t.Fatalf("regression produced %d bundles, want 1", len(paths))
	}
	b, err := Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("regression bundle invalid: %v", err)
	}
	if b.Trigger.Name != TriggerP99Regression {
		t.Fatalf("trigger = %q", b.Trigger.Name)
	}
	if b.BaselineP99NS == 0 {
		t.Fatal("bundle lost the rolling baseline")
	}
}

func TestValidateRejectsBrokenBundles(t *testing.T) {
	mk := func() *Bundle {
		return &Bundle{
			Version: BundleVersion,
			Trigger: Trigger{Name: "ring-fallback", TimeNS: 100},
			Driver: RingDump{Records: []Record{
				{TimeNS: 90, Kind: KindMarker, Name: "ring-fallback"},
				{TimeNS: 80, Kind: KindSpan, Name: "task", B: 1, C: 2, D: 3},
			}},
			Snapshots: []MetricsSnapshot{{TimeNS: 50}},
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("baseline bundle should validate: %v", err)
	}
	b := mk()
	b.Version = 99
	if b.Validate() == nil {
		t.Fatal("wrong version accepted")
	}
	b = mk()
	b.Driver.Records = b.Driver.Records[1:] // drop the marker
	if b.Validate() == nil {
		t.Fatal("missing trigger marker accepted")
	}
	b = mk()
	b.Driver.Records = b.Driver.Records[:1] // drop the span
	if b.Validate() == nil {
		t.Fatal("missing correlated span accepted")
	}
	b = mk()
	b.Snapshots = []MetricsSnapshot{{TimeNS: 200}} // post-trigger only
	if b.Validate() == nil {
		t.Fatal("missing pre-trigger snapshot accepted")
	}
}

func TestAllRecordsMergesSorted(t *testing.T) {
	b := &Bundle{
		Driver: RingDump{Records: []Record{{TimeNS: 5}, {TimeNS: 20}}},
		Executors: []ExecDump{
			{Exec: 0, Ring: RingDump{Records: []Record{{TimeNS: 10}}}},
			{Exec: 1, Ring: RingDump{Records: []Record{{TimeNS: 1}}}},
		},
	}
	all := b.AllRecords()
	if len(all) != 4 {
		t.Fatalf("len=%d", len(all))
	}
	wantT := []int64{1, 5, 10, 20}
	wantE := []int{1, -1, 0, -1}
	for i := range all {
		if all[i].TimeNS != wantT[i] || all[i].Exec != wantE[i] {
			t.Fatalf("record %d = (t=%d exec=%d), want (t=%d exec=%d)",
				i, all[i].TimeNS, all[i].Exec, wantT[i], wantE[i])
		}
	}
}

func BenchmarkRingStep(b *testing.B) {
	r := NewRing(DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Step("reduce-scatter", 1000, 4096, 7, 0, i)
	}
}
