package main

import (
	"fmt"
	"time"

	"sparker/internal/data"
	"sparker/internal/mllib"
	"sparker/internal/transport"
)

// Cluster geometry shared by every workload: 4 in-process executors with
// one core each, ring parallelism 4 (the paper's production setting).
const (
	numExecutors    = 4
	ringParallelism = 4
	treeDepth       = 2
)

// workload is one fixed training problem. Sizes are constants, never
// scaled by the host, so numbers from different hosts differ only by
// the host.
type workload struct {
	Name string
	// Why records the layer the workload stresses; it is copied into
	// BENCHMARK.json and result.json.
	Why string

	Samples, Features, NNZ int
	// NNZAlpha > 0 draws row lengths and feature popularity from a power
	// law (data.ClassificationSpec.NNZAlpha).
	NNZAlpha float64
	Strategy mllib.Strategy
	// Net is "tcp" (loopback sockets), "1g" (in-memory, shaped to 100µs
	// + 125 MB/s per message) or "mem" (in-memory, unshaped).
	Net string
}

var workloads = []workload{
	{
		Name: "wide-split-tcp", Samples: 20_000, Features: 1_000_000, NNZ: 15, NNZAlpha: 1.5,
		Strategy: mllib.StrategySplit, Net: "tcp",
		Why: "Reduction-bound on CPU and syscalls: 7.6 MB aggregator over loopback TCP, so collective, comm, transport and the driver gather do most of the work. The paper's regime.",
	},
	{
		Name: "wide-split-1g", Samples: 20_000, Features: 1_000_000, NNZ: 15, NNZAlpha: 1.5,
		Strategy: mllib.StrategySplit, Net: "1g",
		Why: "Bandwidth-bound: same data on a 1 Gb/s shaped link, wire bytes dominate and CPU hides behind sleeps. Only fewer wire bytes can win here; wide-split-tcp is its bypass.",
	},
	{
		Name: "wide-tree-tcp", Samples: 20_000, Features: 1_000_000, NNZ: 15, NNZAlpha: 1.5,
		Strategy: mllib.StrategyTree, Net: "tcp",
		Why: "Spark's baseline tree aggregation: whole 7.6 MB objects cross rdd, serde, blockmanager and transport and the ring is bypassed, so a ring optimisation must not move it.",
	},
	{
		Name: "tall-split-mem", Samples: 400_000, Features: 2_000, NNZ: 30,
		Strategy: mllib.StrategySplit, Net: "mem",
		Why: "Compute-bound: 400k samples against a 16 KB aggregator, so the linalg CSR kernels and the mllib packed plane do nearly all the work and reduction is negligible.",
	},
	{
		Name: "tiny-split-mem", Samples: 8_000, Features: 512, NNZ: 15,
		Strategy: mllib.StrategySplit, Net: "mem",
		Why: "Latency-bound: 1 ms steps with 256 B ring segments, so sched dispatch, rdd task frames and per-message ring latency dominate; taxes on small segments show here.",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled divides the data dimensions by scale, for the smoke test and
// quick looks; the committed numbers are all at scale 1.
func (w workload) scaled(scale int) workload {
	if scale <= 1 {
		return w
	}
	w.Samples = max(w.Samples/scale, 64)
	w.Features = max(w.Features/scale, 64)
	w.NNZ = min(w.NNZ, w.Features)
	return w
}

// aggLen is the length of the per-iteration aggregator: the gradient
// plus the loss sum and the sample count.
func (w workload) aggLen() int { return w.Features + 2 }

// points generates the workload's samples from seed. This is the only
// place the seed goes: the engine sees the generated points only.
func (w workload) points(seed int64) []mllib.LabeledPoint {
	return data.GenClassification(data.ClassificationSpec{
		Samples:      w.Samples,
		Features:     w.Features,
		NNZPerSample: w.NNZ,
		NNZAlpha:     w.NNZAlpha,
		Seed:         seed,
	})
}

func (w workload) network() transport.Network {
	switch w.Net {
	case "tcp":
		return transport.NewTCP()
	case "1g":
		return transport.NewMemShaped(transport.Shape{Latency: 100 * time.Microsecond, BytesPerSec: 125e6})
	default:
		return transport.NewMem()
	}
}
