package metrics

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(HistRingStepNS)
	h.Observe(3)
	h.Observe(100)
	reg.Gauge(GaugeSendQueue).Set(7)
	rec := NewRecorder()
	rec.Add(PhaseAggReduce, 2*time.Second)
	rec.Inc(CounterRingFallback)

	var b strings.Builder
	if err := WritePrometheus(&b, reg, rec); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sparker_ring_step_ns histogram",
		`sparker_ring_step_ns_bucket{le="4"} 1`,
		`sparker_ring_step_ns_bucket{le="128"} 2`,
		`sparker_ring_step_ns_bucket{le="+Inf"} 2`,
		"sparker_ring_step_ns_sum 103",
		"sparker_ring_step_ns_count 2",
		"# TYPE sparker_comm_send_queue gauge",
		"sparker_comm_send_queue 7",
		`sparker_phase_seconds{phase="agg-reduce"} 2`,
		`sparker_events_total{event="ring-fallback"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Exactly one +Inf series per histogram (the b>=63 fold must not
	// duplicate it).
	if n := strings.Count(out, `le="+Inf"`); n != 1 {
		t.Errorf("%d +Inf buckets, want 1", n)
	}
}

func TestWritePrometheusHugeSampleFoldsToInf(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("big").Observe(1 << 62) // lands in bucket 63
	var b strings.Builder
	if err := WritePrometheus(&b, reg, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, `le="+Inf"`); n != 1 {
		t.Fatalf("%d +Inf series, want exactly 1:\n%s", n, out)
	}
	if !strings.Contains(out, `sparker_big_bucket{le="+Inf"} 1`) {
		t.Fatalf("bucket-63 sample not folded into +Inf:\n%s", out)
	}
}

func TestServerServesAndCloses(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(HistRingStepNS).Observe(5)
	rec := NewRecorder()
	srv, err := NewServer("127.0.0.1:0", func() (*Registry, *Recorder) { return reg, rec })
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "sparker_ring_step_ns_count 1") {
		t.Fatalf("scrape body:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Close: %v", err)
	}
	// A second scrape must fail: the listener is gone.
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr())); err == nil {
		t.Fatal("server still serving after Close")
	}

	// The operations plane answers probes beside the exposition.
	mux, err := NewMuxServer("127.0.0.1:0", func() (*Registry, *Recorder) { return reg, rec }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	for path, want := range map[string]string{
		"/":          "sparker_ring_step_ns_count 1",
		"/healthz":   `"status":"ok"`,
		"/buildinfo": `"go_version": "go`,
	} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", mux.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("%s: code %d, body %q, want it to contain %q", path, resp.StatusCode, body, want)
		}
	}
}

// TestServerNoGoroutineLeak is the HTTP-handler half of the shutdown
// leak checklist: repeated open/close cycles must not grow the
// goroutine count.
func TestServerNoGoroutineLeak(t *testing.T) {
	src := func() (*Registry, *Recorder) { return NewRegistry(), NewRecorder() }
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		srv, err := NewServer("127.0.0.1:0", src)
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		// http.Server internals may take a beat to unwind.
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after 10 server open/close cycles",
		base, runtime.NumGoroutine())
}
