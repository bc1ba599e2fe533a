package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Prometheus-style text exposition (text format 0.0.4) over stdlib
// net/http only. Histograms expose cumulative log₂ buckets with `le`
// upper bounds; the Recorder's phases and counters ride along so one
// scrape covers both the coarse paper decomposition and the typed
// instruments.

// promName sanitizes an instrument name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("sparker_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders reg's instruments and rec's phases/counters
// in Prometheus text format. Either argument may be nil.
func WritePrometheus(w io.Writer, reg *Registry, rec *Recorder) error {
	for _, name := range reg.HistogramNames() {
		s := reg.Histogram(name).Snapshot()
		mn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", mn); err != nil {
			return err
		}
		var cum int64
		for b, c := range s.Buckets {
			cum += c
			if c == 0 {
				continue
			}
			// Upper bound of bucket b is 2^b (bucket 0 holds <= 0).
			// Buckets at or past bit 63 fold into the final +Inf line.
			if b >= 63 {
				continue
			}
			le := "1"
			if b > 0 {
				le = fmt.Sprintf("%d", int64(1)<<b)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", mn, le, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", mn, s.Count)
		fmt.Fprintf(w, "%s_sum %d\n", mn, s.Sum)
		fmt.Fprintf(w, "%s_count %d\n", mn, s.Count)
	}
	for _, name := range reg.GaugeNames() {
		mn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", mn, mn, reg.Gauge(name).Value())
	}
	if rec != nil {
		phases := rec.Snapshot()
		names := make([]string, 0, len(phases))
		for n := range phases {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(w, "# TYPE sparker_phase_seconds counter\n")
			for _, n := range names {
				fmt.Fprintf(w, "sparker_phase_seconds{phase=%q} %g\n", n, phases[n].Seconds())
			}
		}
		counters := rec.Counters()
		cnames := make([]string, 0, len(counters))
		for n := range counters {
			cnames = append(cnames, n)
		}
		sort.Strings(cnames)
		if len(cnames) > 0 {
			fmt.Fprintf(w, "# TYPE sparker_events_total counter\n")
			for _, n := range cnames {
				fmt.Fprintf(w, "sparker_events_total{event=%q} %d\n", n, counters[n])
			}
		}
	}
	return nil
}

// Source supplies the current registry and recorder at scrape time —
// typically rdd.Context.MergedMetrics, so each scrape sees freshly
// merged per-executor instruments.
type Source func() (*Registry, *Recorder)

// Handler returns an http.Handler serving the exposition.
func Handler(src Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg, rec := src()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, reg, rec)
	})
}

// HealthzHandler answers liveness probes: 200 with a tiny JSON body.
// Mounted at /healthz by NewMuxServer.
func HealthzHandler() http.Handler {
	start := time.Now()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_s\":%d}\n", int64(time.Since(start).Seconds()))
	})
}

// BuildInfoHandler serves the binary's embedded module build info
// (Go version, main module path/version, VCS stamp) as JSON — the
// first question in any incident is "what exactly is running here".
func BuildInfoHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			http.Error(w, "build info unavailable", http.StatusNotFound)
			return
		}
		out := struct {
			GoVersion string            `json:"go_version"`
			Path      string            `json:"path"`
			Main      string            `json:"main"`
			Version   string            `json:"version"`
			Settings  map[string]string `json:"settings,omitempty"`
		}{
			GoVersion: bi.GoVersion,
			Path:      bi.Path,
			Main:      bi.Main.Path,
			Version:   bi.Main.Version,
			Settings:  map[string]string{},
		}
		for _, s := range bi.Settings {
			// The VCS stamp and build mode are the useful forensic bits;
			// skip the noisy -ldflags/-gcflags echoes.
			if strings.HasPrefix(s.Key, "vcs") || s.Key == "GOARCH" || s.Key == "GOOS" {
				out.Settings[s.Key] = s.Value
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(out)
	})
}

// Server is a minimal metrics endpoint. Close shuts it down and waits
// for the serve goroutine to exit (the goroutine-leak tests gate
// this).
type Server struct {
	lis    net.Listener
	srv    *http.Server
	served chan struct{}
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves the
// exposition at every path.
func NewServer(addr string, src Source) (*Server, error) {
	return serve(addr, Handler(src))
}

// NewMuxServer is NewServer grown into a small operations plane: the
// exposition stays at "/", /healthz and /buildinfo answer probes, and
// the caller can mount extra handlers (sparker-train mounts the rdd
// debug plane at /debug/).
func NewMuxServer(addr string, src Source, extra map[string]http.Handler) (*Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/", Handler(src))
	mux.Handle("GET /healthz", HealthzHandler())
	mux.Handle("GET /buildinfo", BuildInfoHandler())
	for pattern, h := range extra {
		if h != nil {
			mux.Handle(pattern, h)
		}
	}
	return serve(addr, mux)
}

func serve(addr string, h http.Handler) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	s := &Server{
		lis:    lis,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		s.srv.Serve(lis)
	}()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server and waits for its goroutine.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.served
	return err
}
