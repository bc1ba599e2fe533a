package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: the engine itself is not instrumented here.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index into tracer.spans, -1 for a root
}

// tracer keeps spans in memory until the run ends. All spans are
// started and ended by the benchmark's main goroutine, so it needs no
// lock; work a span fans out to other goroutines is inside the span.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.epoch) }

// call times fn as one span.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.start(name, parent)
	fn()
	t.end(id)
}

// durations returns, in milliseconds, how long every span called name
// lasted.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// selfMs sums, per span name, each span's duration minus the part its
// children cover. Children of one parent never overlap here, because
// one goroutine records them all.
func (t *tracer) selfMs() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.name] += ms(self[i])
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format, which
// Perfetto (ui.perfetto.dev) opens directly. Complete events on one
// thread nest by containment, which is how parents show.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.parent, "workload": t.workload},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
