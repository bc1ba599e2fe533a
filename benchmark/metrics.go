package main

// metricDef names one metric. BENCHMARK.json at the root of the repo
// lists the same names, units, directions and bounds; the smoke test
// holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the engine would see, measured by
// the untraced run. fail_ratio (failed ÷ attempted operations, bound 0)
// is printed with them but travels as the attempted and failed counts
// of the result line, because a gated metric must never be 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"iter_ms_p50", "ms", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_iter", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics of single layers, measured by the traced
// run; the prefix is the package.
var perLayer = []metricDef{
	{Name: "sched.stage_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.wait_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "sched.task_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "sched.spec_launched", Unit: "count", Better: "lower"},
	{Name: "rdd.empty_job_us_p50", Unit: "us", Better: "lower"},
	{Name: "rdd.result_dropped", Unit: "count", Better: "lower"},
	{Name: "rdd.result_malformed", Unit: "count", Better: "lower"},
	{Name: "serde.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "serde.decode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "linalg.csrgrad_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "linalg.csrgrad_mnnz_per_s", Unit: "Mnnz/s", Better: "higher"},
	{Name: "linalg.add_assign_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "linalg.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "mllib.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mllib.step_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "mllib.map_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mllib.update_us_p50", Unit: "us", Better: "lower"},
	{Name: "mllib.single_worker_step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mllib.iter_ms_drift_pct", Unit: "%", Better: "lower"},
	{Name: "mllib.loss_rel_err", Unit: "ratio", Better: "lower"},
	{Name: "core.aggregate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.split_concat_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.phase_compute_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "core.phase_reduce_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "core.ring_fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.elastic_retries", Unit: "count", Better: "lower"},
	{Name: "collective.reduce_scatter_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collective.allgather_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collective.tree_reduce_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collective.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "collective.decode_reduce_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "collective.step_us_p50", Unit: "us", Better: "lower"},
	{Name: "collective.step_us_p99", Unit: "us", Better: "lower"},
	{Name: "collective.chunk_reduce_us_p50", Unit: "us", Better: "lower"},
	{Name: "collective.ring_steps_per_iter", Unit: "count", Better: "lower"},
	{Name: "collective.wire_bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "collective.raw_bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "comm.pingpong_us_p50", Unit: "us", Better: "lower"},
	{Name: "comm.segment_send_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "comm.send_queue_max", Unit: "count", Better: "lower"},
	{Name: "transport.rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.stream_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "transport.dial_us_p50", Unit: "us", Better: "lower"},
	{Name: "blockmanager.put_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "blockmanager.remote_get_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "blockmanager.put_bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "blockmanager.get_bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "obsv.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.attributed_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.unattributed_pct", Unit: "%", Better: "lower"},
}

// exactCounts are the per-layer metrics that count work, not time: two
// runs of the same code must report them identically. The ring's wire
// bytes are not among them: the pipelined ring picks its chunk size
// from the step times it has seen, so the number of frame headers on
// the wire moves by a few thousandths of a percent from run to run.
var exactCounts = []string{
	"collective.ring_steps_per_iter",
	"blockmanager.put_bytes_per_iter",
	"blockmanager.get_bytes_per_iter",
}

// defsFor returns the metrics a run of the given kind reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the tables of metrics.go")
}
