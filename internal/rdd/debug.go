package rdd

// Live cluster introspection: Context.DebugHandler serves the
// /debug/sparker/* plane (scheduler slots and gang queues, ring
// topology with current epochs, block-manager residency, in-flight
// collectives, flight-recorder status) plus the standard
// /debug/pprof/* profiling endpoints. The sparker-train -metrics server
// mounts it. Everything here reads
// live state through the same synchronized paths the engine itself
// uses (scheduler snapshots run on the event loop), so scraping the
// debug plane is safe while jobs run.

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"

	"sparker/internal/blockmanager"
	"sparker/internal/comm"
	"sparker/internal/membership"
	"sparker/internal/metrics"
	"sparker/internal/obsv"
)

// CollectiveInfo describes one in-flight collective operation. Tracked
// from core's ring stages so /debug/sparker/collectives can answer
// "what is the ring doing right now".
type CollectiveInfo struct {
	OpID    int64  `json:"op"`
	Kind    string `json:"kind"` // e.g. "ring-allreduce", "ring-aggregate"
	Tasks   int    `json:"tasks"`
	Epoch   uint32 `json:"epoch"`
	StartNS int64  `json:"start_ns"`
	Detail  string `json:"detail,omitempty"`
	AgeNS   int64  `json:"age_ns"` // filled at snapshot time
}

// TrackCollective registers an in-flight collective and returns its
// untrack function. Call sites wrap ring stages:
//
//	done := ctx.TrackCollective(rdd.CollectiveInfo{...})
//	defer done()
func (ctx *Context) TrackCollective(info CollectiveInfo) func() {
	info.StartNS = time.Now().UnixNano()
	key := ctx.trackSeq.Add(1)
	ctx.collectives.Store(key, info)
	return func() { ctx.collectives.Delete(key) }
}

// InflightCollectives returns the currently tracked collectives,
// oldest first.
func (ctx *Context) InflightCollectives() []CollectiveInfo {
	now := time.Now().UnixNano()
	var out []CollectiveInfo
	ctx.collectives.Range(func(_, v any) bool {
		ci := v.(CollectiveInfo)
		ci.AgeNS = now - ci.StartNS
		out = append(out, ci)
		return true
	})
	sortCollectives(out)
	return out
}

func sortCollectives(cs []CollectiveInfo) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].StartNS < cs[j-1].StartNS; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// collectExecRings fetches every executor's flight-recorder ring for a
// postmortem bundle — over the transport via a one-task-per-executor
// stage when the cluster can still run one, falling back to reading
// the rings in-process when it cannot (they live in the Observer, so
// a dead scheduler doesn't lose them).
func (ctx *Context) collectExecRings() []obsv.ExecDump {
	obs := ctx.conf.Obsv
	n := ctx.NumExecutors()
	payloads, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		return json.Marshal(obs.ExecRing(ec.ID).Snapshot())
	})
	out := make([]obsv.ExecDump, n)
	for i := range out {
		out[i] = obsv.ExecDump{Exec: i}
		// Dead slots have a nil payload (RunOnAllExecutors covers the
		// live set); their rings are still readable in-process below.
		if err == nil && i < len(payloads) && payloads[i] != nil {
			var dump obsv.RingDump
			if uerr := json.Unmarshal(payloads[i], &dump); uerr == nil {
				out[i].Source = "transport"
				out[i].Ring = dump
				continue
			}
		}
		// Fallback: same-process read of the executor's ring.
		out[i].Source = "in-process"
		out[i].Ring = obs.ExecRing(i).Snapshot()
		if err != nil {
			out[i].Err = err.Error()
		}
	}
	return out
}

// membershipView is the /debug/sparker/membership payload: the
// installed epoch's slot table and rank geometry plus the registry's
// full event history — enough to reconstruct every reconfiguration the
// cluster went through.
type membershipView struct {
	Epoch      uint64              `json:"epoch"`
	Group      string              `json:"group"`
	NumSlots   int                 `json:"num_slots"`
	NumLive    int                 `json:"num_live"`
	Live       []int               `json:"live"`
	Members    []membership.Member `json:"members"`
	ExecOfRank []int               `json:"exec_of_rank"`
	History    []membership.Event  `json:"history"`
}

func (ctx *Context) membershipView() membershipView {
	cv := ctx.clusterView()
	return membershipView{
		Epoch:      cv.view.Epoch,
		Group:      cv.group,
		NumSlots:   cv.view.NumSlots(),
		NumLive:    cv.view.NumLive(),
		Live:       cv.view.Live(),
		Members:    cv.view.Members,
		ExecOfRank: cv.execOfRank,
		History:    ctx.MembershipHistory(),
	}
}

// --- /debug/sparker/* handlers ----------------------------------------

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// topologyView is the /debug/sparker/topology payload: the rank <->
// executor assignment with per-endpoint traffic, wiring, and the most
// recent collective epoch each executor's recorder saw.
type topologyView struct {
	Executors []topologyExec `json:"executors"`
}

type topologyExec struct {
	Exec          int        `json:"exec"`
	Host          string     `json:"host"`
	Rank          int        `json:"rank"`
	Next          int        `json:"next_rank"`
	Prev          int        `json:"prev_rank"`
	Stats         comm.Stats `json:"comm"`
	InboundConns  int        `json:"inbound_conns"`
	OutboundConns int        `json:"outbound_conns"`
	LastEpoch     uint32     `json:"last_epoch,omitempty"`
}

func (ctx *Context) topologyView() topologyView {
	var tv topologyView
	for i, e := range ctx.executorSnapshot() {
		if e == nil {
			continue
		}
		ep := e.endpoint()
		if ep == nil {
			// A joiner not yet committed into a ring has no endpoint.
			tv.Executors = append(tv.Executors, topologyExec{Exec: i, Host: e.host, Rank: -1})
			continue
		}
		in, out := ep.OpenConns()
		te := topologyExec{
			Exec:          i,
			Host:          e.host,
			Rank:          e.rankNow(),
			Next:          ep.Next(),
			Prev:          ep.Prev(),
			Stats:         ep.Stats(),
			InboundConns:  in,
			OutboundConns: out,
		}
		if obs := ctx.conf.Obsv; obs != nil {
			te.LastEpoch = obs.ExecRing(i).LastEpoch()
		}
		tv.Executors = append(tv.Executors, te)
	}
	return tv
}

// blocksView is the /debug/sparker/blocks payload: block residency per
// store (driver plus every executor shard).
type blocksView struct {
	Stores []storeView `json:"stores"`
}

type storeView struct {
	Name   string                   `json:"name"`
	Blocks []blockmanager.BlockInfo `json:"blocks"`
	Bytes  int64                    `json:"bytes"`
	Count  int                      `json:"count"`
}

func storeViewOf(name string, s *blockmanager.Store) storeView {
	sv := storeView{Name: name}
	if s == nil {
		return sv
	}
	sv.Blocks = s.List()
	sv.Count = len(sv.Blocks)
	for _, b := range sv.Blocks {
		sv.Bytes += int64(b.Bytes)
	}
	return sv
}

func (ctx *Context) blocksView() blocksView {
	var bv blocksView
	bv.Stores = append(bv.Stores, storeViewOf(ctx.conf.Name+"/driver", ctx.driverStore))
	for i, e := range ctx.executorSnapshot() {
		if e != nil {
			bv.Stores = append(bv.Stores, storeViewOf(ctx.ExecutorStoreName(i), e.store))
		}
	}
	return bv
}

// computeView is the /debug/sparker/compute payload: per-executor
// packed map-phase kernel latency and throughput, plus the merged
// cluster aggregate — the compute-plane sibling of
// /debug/sparker/collectives.
type computeView struct {
	Executors []computeExec `json:"executors"`
	Cluster   computeStats  `json:"cluster"`
}

type computeExec struct {
	Exec int `json:"exec"`
	computeStats
}

type computeStats struct {
	// Passes is the number of fused kernel invocations observed.
	Passes int64 `json:"passes"`
	// MapP50NS/MapP95NS/MapP99NS are map-phase kernel latency quantiles.
	MapP50NS int64 `json:"map_p50_ns"`
	MapP95NS int64 `json:"map_p95_ns"`
	MapP99NS int64 `json:"map_p99_ns"`
	// TotalMapNS is the cumulative kernel time.
	TotalMapNS int64 `json:"total_map_ns"`
	// PointsPerSec is the most recent per-pass throughput (summed
	// across executors in the cluster view).
	PointsPerSec int64 `json:"points_per_sec"`
}

func computeStatsOf(reg *metrics.Registry) computeStats {
	h := reg.Histogram(metrics.HistComputeMapNS)
	return computeStats{
		Passes:       h.Count(),
		MapP50NS:     h.Quantile(0.50),
		MapP95NS:     h.Quantile(0.95),
		MapP99NS:     h.Quantile(0.99),
		TotalMapNS:   h.Sum(),
		PointsPerSec: reg.Gauge(metrics.GaugeComputePointsPerSec).Value(),
	}
}

func (ctx *Context) computeView() computeView {
	var cv computeView
	for i, e := range ctx.executorSnapshot() {
		if e == nil {
			continue
		}
		cv.Executors = append(cv.Executors, computeExec{Exec: i, computeStats: computeStatsOf(e.reg)})
	}
	cv.Cluster = computeStatsOf(ctx.MergedMetrics())
	return cv
}

// DebugHandler returns the live-introspection plane: the
// /debug/sparker/* endpoints plus /debug/pprof/*. Mount it at "/" on
// any mux (paths are absolute). Handlers are safe while jobs run.
func (ctx *Context) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/sparker/sched", func(w http.ResponseWriter, r *http.Request) {
		snap, err := ctx.sched.Snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("GET /debug/sparker/topology", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ctx.topologyView())
	})
	mux.HandleFunc("GET /debug/sparker/blocks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ctx.blocksView())
	})
	mux.HandleFunc("GET /debug/sparker/membership", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ctx.membershipView())
	})
	mux.HandleFunc("GET /debug/sparker/collectives", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Inflight []CollectiveInfo `json:"inflight"`
		}{Inflight: ctx.InflightCollectives()})
	})
	mux.HandleFunc("GET /debug/sparker/compute", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ctx.computeView())
	})
	mux.HandleFunc("GET /debug/sparker/obsv", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ctx.conf.Obsv.Status())
	})
	// Continuous profiling: the standard pprof surface. CPU profiles
	// taken here carry the sparker_job/sparker_exec
	// labels runTask applies around task bodies.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
