// Package obsv is Sparker's flight recorder: an always-on, bounded,
// allocation-free ring buffer per executor and driver that retains the
// most recent spans, event-log markers, and metric snapshots, and an
// Observer that serializes a self-contained postmortem bundle when an
// anomaly trips (ring fallback, speculative launch, classified peer
// failure, job failure/cancel, or a p99 step-latency regression against
// a rolling baseline).
//
// The recorder is designed so that the hot ring path (internal/
// collective) can record one fixed-size Record per step without
// allocating: Record is a value struct of scalars and pre-interned
// strings, the Ring is a preallocated slice guarded by a mutex, and a
// nil *Ring is a valid disabled recorder whose every method no-ops —
// the same convention as trace.Tracer and metrics.Histogram, enforced
// by the `make overhead` alloc gate.
package obsv

import (
	"context"
	"sync"
	"time"

	"sparker/internal/trace"
)

// Kind classifies a flight-recorder record.
type Kind uint8

const (
	// KindStep is one collective ring step (hot path): A=duration ns,
	// B=wire bytes, C=epoch, D=channel<<32|step.
	KindStep Kind = iota + 1
	// KindMarker is an anomaly/event marker: Name=counter name.
	KindMarker
	// KindPhase is a coarse engine phase: A=duration ns.
	KindPhase
	// KindSpan is a finished trace span: A=duration ns, B=trace ID,
	// C=span ID, D=parent span ID (int64 bit patterns of the uint64s).
	KindSpan
	// KindSnapshot is a periodic metric snapshot: A=windowed step
	// count, B=windowed p50 ns, C=windowed p99 ns, D=heap bytes.
	KindSnapshot
	// KindProfile is a profiling sample: A=heap bytes, B=cumulative
	// alloc bytes, C=goroutines, D=job ID (0 for periodic samples).
	KindProfile
)

// String renders the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindStep:
		return "step"
	case KindMarker:
		return "marker"
	case KindPhase:
		return "phase"
	case KindSpan:
		return "span"
	case KindSnapshot:
		return "snapshot"
	case KindProfile:
		return "profile"
	}
	return "?"
}

// Record is one fixed-size flight-recorder entry. The A–D scalars are
// interpreted per Kind (see the Kind constants); Name and Detail are
// expected to be pre-interned (constant) strings on hot paths so
// recording never allocates.
type Record struct {
	TimeNS int64  `json:"t"`
	Kind   Kind   `json:"k"`
	Name   string `json:"n,omitempty"`
	Detail string `json:"msg,omitempty"`
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
	C      int64  `json:"c,omitempty"`
	D      int64  `json:"d,omitempty"`
}

// Ring is a bounded flight-recorder buffer. Writers overwrite the
// oldest record once full; Snapshot copies out the retained window.
// All methods are safe for concurrent use and no-op on a nil receiver.
type Ring struct {
	mu        sync.Mutex
	recs      []Record
	next      uint64 // total records ever written
	lastEpoch uint32 // most recent collective epoch seen by Step
}

// DefaultRingSize is the per-ring record capacity when Config.RingSize
// is zero. At one record per ring step a 4-executor run retains on the
// order of the last several hundred collectives.
const DefaultRingSize = 4096

// NewRing returns a recorder retaining the last n records (n<=0 uses
// DefaultRingSize). The buffer is allocated up front; recording never
// allocates afterward.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Ring{recs: make([]Record, n)}
}

func (r *Ring) put(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recs[r.next%uint64(len(r.recs))] = rec
	r.next++
	r.mu.Unlock()
}

// Step records one collective ring step — the hot-path entry. op must
// be a constant string; the call performs no allocation (one mutex
// acquire and a struct store).
func (r *Ring) Step(op string, durNS, wireBytes int64, epoch uint32, channel, step int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recs[r.next%uint64(len(r.recs))] = Record{
		TimeNS: time.Now().UnixNano(),
		Kind:   KindStep,
		Name:   op,
		A:      durNS,
		B:      wireBytes,
		C:      int64(epoch),
		D:      int64(channel)<<32 | int64(uint32(step)),
	}
	r.next++
	r.lastEpoch = epoch
	r.mu.Unlock()
}

// Marker records an event-log marker (counter increment).
func (r *Ring) Marker(name, detail string) {
	r.put(Record{TimeNS: time.Now().UnixNano(), Kind: KindMarker, Name: name, Detail: detail})
}

// Phase records a coarse engine phase duration.
func (r *Ring) Phase(name string, d time.Duration, detail string) {
	r.put(Record{TimeNS: time.Now().UnixNano(), Kind: KindPhase, Name: name, Detail: detail, A: d.Nanoseconds()})
}

// Span records a finished trace span. The span's error attribute, when
// present, becomes the record detail so postmortems surface failures.
func (r *Ring) Span(s trace.Span) {
	if r == nil {
		return
	}
	detail, _ := s.Attr("error")
	r.put(Record{
		TimeNS: s.Start,
		Kind:   KindSpan,
		Name:   s.Name,
		Detail: detail,
		A:      s.End - s.Start,
		B:      int64(s.TraceID),
		C:      int64(s.SpanID),
		D:      int64(s.ParentID),
	})
}

// Profile records a profiling sample (per-stage delta or periodic).
func (r *Ring) Profile(name string, heap, cumAlloc int64, goroutines int, jobID int64) {
	r.put(Record{
		TimeNS: time.Now().UnixNano(),
		Kind:   KindProfile,
		Name:   name,
		A:      heap,
		B:      cumAlloc,
		C:      int64(goroutines),
		D:      jobID,
	})
}

// LastEpoch returns the most recent collective epoch recorded by Step —
// the "current epoch" surfaced by /debug/sparker/topology.
func (r *Ring) LastEpoch() uint32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastEpoch
}

// RingDump is the serialized contents of one Ring, oldest record first.
type RingDump struct {
	Total   uint64   `json:"total"`             // records ever written
	Dropped uint64   `json:"dropped,omitempty"` // overwritten before the dump
	Records []Record `json:"records"`
}

// Snapshot copies out the retained window, oldest first.
func (r *Ring) Snapshot() RingDump {
	if r == nil {
		return RingDump{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.recs))
	kept := r.next
	if kept > n {
		kept = n
	}
	out := make([]Record, 0, kept)
	for i := r.next - kept; i < r.next; i++ {
		out = append(out, r.recs[i%n])
	}
	return RingDump{Total: r.next, Dropped: r.next - kept, Records: out}
}

// --- context propagation ----------------------------------------------

type ctxKey struct{}

// NewContext returns ctx carrying the flight-recorder ring, the form
// the collective layer reads back with FromContext. A nil ring returns
// ctx unchanged so the disabled path adds no context allocation.
func NewContext(ctx context.Context, r *Ring) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext extracts the ring from ctx; nil when uninstrumented.
func FromContext(ctx context.Context) *Ring {
	r, _ := ctx.Value(ctxKey{}).(*Ring)
	return r
}
