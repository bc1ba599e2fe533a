package rdd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sparker/internal/metrics"
)

// TestComputeDebugEndpoint: /debug/sparker/compute must surface the
// per-executor packed map-phase instruments and the merged cluster
// aggregate (histogram counts add, throughput gauges sum).
func TestComputeDebugEndpoint(t *testing.T) {
	ctx, err := NewContext(Config{Name: "compute-debug", NumExecutors: 2, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	if _, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		ec.Registry.Histogram(metrics.HistComputeMapNS).Observe(int64(1000 * (ec.ID + 1)))
		ec.Registry.Gauge(metrics.GaugeComputePointsPerSec).Set(int64(500 * (ec.ID + 1)))
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(ctx.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/sparker/compute")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/sparker/compute: code %d", resp.StatusCode)
	}
	var cv struct {
		Executors []struct {
			Exec   int   `json:"exec"`
			Passes int64 `json:"passes"`
		} `json:"executors"`
		Cluster struct {
			Passes       int64 `json:"passes"`
			TotalMapNS   int64 `json:"total_map_ns"`
			PointsPerSec int64 `json:"points_per_sec"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	if len(cv.Executors) != 2 {
		t.Fatalf("%d executors, want 2", len(cv.Executors))
	}
	for _, e := range cv.Executors {
		if e.Passes != 1 {
			t.Fatalf("executor %d passes = %d, want 1", e.Exec, e.Passes)
		}
	}
	if cv.Cluster.Passes != 2 || cv.Cluster.TotalMapNS != 3000 || cv.Cluster.PointsPerSec != 1500 {
		t.Fatalf("cluster view = %+v, want passes 2, total 3000ns, 1500 points/s", cv.Cluster)
	}
}

// TestDebugHandlerServesLiveState: the scheduler snapshot, the topology
// and the pprof index answer on a running context.
func TestDebugHandlerServesLiveState(t *testing.T) {
	ctx, err := NewContext(Config{Name: "debug-live", NumExecutors: 2, CoresPerExecutor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	srv := httptest.NewServer(ctx.DebugHandler())
	defer srv.Close()
	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d", path, resp.StatusCode)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
	}
	var sched struct {
		TotalSlots int `json:"total_slots"`
	}
	get("/debug/sparker/sched", &sched)
	if sched.TotalSlots != 4 {
		t.Fatalf("sched snapshot reports %d slots, want 4", sched.TotalSlots)
	}
	var topo struct {
		Executors []struct {
			Exec int `json:"exec"`
		} `json:"executors"`
	}
	get("/debug/sparker/topology", &topo)
	if len(topo.Executors) != 2 {
		t.Fatalf("topology reports %d executors, want 2", len(topo.Executors))
	}
	get("/debug/pprof/cmdline", nil)
}
