package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sparker/internal/rdd"
)

// smokeOptions runs every phase of the benchmark once at a hundredth of
// the data, with no time budgets, so the whole file stays in seconds.
func smokeOptions(t *testing.T, traced bool) options {
	return options{
		seed: 1, seconds: 0, traced: traced, outDir: t.TempDir(),
		floors: floors{steps: subRuns, tracedSteps: stepBlock, probeReps: 2},
	}
}

// checkMetrics fails unless r holds exactly the metrics of defs, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, the table has %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if r.Failed != 0 || !r.Correct || r.FailRatio != 0 {
		t.Errorf("failed operations: %d of %d: %v", r.Failed, r.Attempted, r.Errors)
	}
}

func TestEveryMetricOncePerWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			w := w.scaled(100)
			// One untraced run and two traced ones, at once: the shaped
			// network sleeps most of the time. The two traced runs must
			// report the counts of work identically.
			var runs [3]*result
			var errs [3]error
			var wg sync.WaitGroup
			for i := range runs {
				o := smokeOptions(t, i > 0)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if !o.traced {
						runs[i], errs[i] = runUntraced(w, o)
						return
					}
					if runs[i], errs[i] = runTraced(w, o); errs[i] == nil {
						_, errs[i] = os.Stat(filepath.Join(o.outDir, "trace-"+w.Name+".json"))
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			checkMetrics(t, runs[0], endToEnd)
			checkMetrics(t, runs[1], perLayer)
			checkMetrics(t, runs[2], perLayer)
			for _, name := range exactCounts {
				if a, b := runs[1].Metrics[name].Value, runs[2].Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs: %v and %v", name, a, b)
				}
			}
		})
	}
}

func TestPerturbedLossFailsTheCheck(t *testing.T) {
	w, err := workloadByName("tiny-split-mem")
	if err != nil {
		t.Fatal(err)
	}
	w = w.scaled(100)
	points := w.points(1)
	c, err := setUp(w, points, rdd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	want := referenceLosses(points, w.Features, fullRunIterations)
	want[len(want)-1] += 1e-6
	r := newResult(w, smokeOptions(t, false))
	checkedFullRuns(c, r, want)
	r.finish()
	if r.Failed != fullRuns || r.Correct || r.FailRatio != 1 {
		t.Errorf("a loss off by 1e-6 passed the check: failed=%d correct=%t fail_ratio=%v", r.Failed, r.Correct, r.FailRatio)
	}
}

// TestBenchmarkJSONMirrorsTheTables keeps BENCHMARK.json, which the
// driver reads, and the tables of metrics.go and workloads.go, which
// the program prints from, the same.
func TestBenchmarkJSONMirrorsTheTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		RunSeconds float64                      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []jsonMetric                 `json:"end_to_end"`
		PerLayer   []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %v, the -seconds default %v", spec.RunSeconds, defaultSeconds)
	}
	var names []struct{ Name, Why string }
	for _, w := range workloads {
		names = append(names, struct{ Name, Why string }{w.Name, w.Why})
	}
	if !reflect.DeepEqual(spec.Workloads, names) {
		t.Errorf("workloads differ:\n json  %v\n table %v", spec.Workloads, names)
	}
	for _, c := range []struct {
		kind string
		json []jsonMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []jsonMetric
		for _, d := range c.defs {
			want = append(want, jsonMetric(d))
		}
		if !reflect.DeepEqual(c.json, want) {
			t.Errorf("%s differs:\n json  %v\n table %v", c.kind, c.json, want)
		}
	}
}
