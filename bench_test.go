// Package sparker's benchmark suite: one testing.B benchmark per
// table/figure of the paper's evaluation. Functional benchmarks
// (Fig12–Fig17 variants) measure the real in-process implementations —
// transports, communicator, collectives, aggregation strategies, model
// training. Simulation benchmarks (suffix Sim) time the calibrated
// cluster-scale reproduction used by cmd/sparkerbench.
//
//	go test -bench=. -benchmem
package sparker

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sparker/internal/blockmanager"
	"sparker/internal/collective"
	"sparker/internal/comm"
	"sparker/internal/data"
	"sparker/internal/mllib"
	"sparker/internal/rdd"
	"sparker/internal/sim"
	"sparker/internal/transport"
)

const benchMB = 1024 * 1024

// --- Table 2: dataset generation throughput ---------------------------

func BenchmarkTable02DatasetGen(b *testing.B) {
	for _, name := range []string{"avazu", "kdd10", "nytimes"} {
		b.Run(name, func(b *testing.B) {
			p, err := data.ProfileByName(name)
			if err != nil {
				b.Fatal(err)
			}
			scaled := p.Scaled(100_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.Task == data.TaskClassification {
					pts := data.GenClassification(scaled.ClassificationSpec(int64(i)))
					if len(pts) == 0 {
						b.Fatal("empty")
					}
				} else {
					docs := data.GenCorpus(scaled.CorpusSpec(10, int64(i)))
					if len(docs) == 0 {
						b.Fatal("empty")
					}
				}
			}
		})
	}
}

// --- Figures 1/2: full-workload simulation -----------------------------

func BenchmarkFig01WorkloadSim(b *testing.B) {
	w, err := sim.WorkloadByName("LDA-N")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunWorkload(sim.RunParams{
			Cluster: sim.BIC(), Workload: w, Strategy: sim.AggTree, Nodes: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02DecompositionSim(b *testing.B) {
	ws := sim.Workloads()
	for i := 0; i < b.N; i++ {
		w := ws[i%len(ws)]
		if _, err := sim.RunWorkload(sim.RunParams{
			Cluster: sim.BIC(), Workload: w, Strategy: sim.AggTree, Nodes: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 3/4: strong-scaling simulation ----------------------------

func BenchmarkFig03StrongScalingSim(b *testing.B) {
	w, err := sim.WorkloadByName("LDA-N")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		nodes := []int{1, 2, 4, 8}[i%4]
		if _, err := sim.RunWorkload(sim.RunParams{
			Cluster: sim.BIC(), Workload: w, Strategy: sim.AggTree, Nodes: nodes,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04StrongScalingSim(b *testing.B) {
	w, err := sim.WorkloadByName("LDA-N")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunWorkload(sim.RunParams{
			Cluster: sim.AWS(), Workload: w, Strategy: sim.AggTree, Nodes: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 12: point-to-point latency (functional) --------------------

// BenchmarkFig12LatencySC measures a real ping-pong over the scalable
// communicator (mem transport), reporting ns/op per round trip.
func BenchmarkFig12LatencySC(b *testing.B) {
	net := transport.NewMem()
	defer net.Close()
	eps, err := comm.NewGroup(net, "bench-lat", 2)
	if err != nil {
		b.Fatal(err)
	}
	defer comm.CloseGroup(eps)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := eps[1].RecvFrom(0, 0)
			if err != nil {
				return
			}
			if err := eps[1].SendTo(0, 0, msg); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eps[0].SendTo(1, 0, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := eps[0].RecvFrom(1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	comm.CloseGroup(eps)
	<-done
}

// BenchmarkFig12LatencyBM measures the BlockManager messaging baseline
// — the path the paper measured at 242× MPI latency.
func BenchmarkFig12LatencyBM(b *testing.B) {
	net := transport.NewMem()
	defer net.Close()
	master, err := blockmanager.NewMaster(net)
	if err != nil {
		b.Fatal(err)
	}
	defer master.Close()
	s0, err := blockmanager.NewStore(net, "bench-bm-0")
	if err != nil {
		b.Fatal(err)
	}
	defer s0.Close()
	s1, err := blockmanager.NewStore(net, "bench-bm-1")
	if err != nil {
		b.Fatal(err)
	}
	defer s1.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := s1.RecvMessage()
			if err != nil {
				return
			}
			if err := s1.SendMessage("bench-bm-0", msg); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s0.SendMessage("bench-bm-1", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := s0.RecvMessage(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// --- Figure 13: throughput (functional, TCP loopback) -------------------

func BenchmarkFig13Throughput(b *testing.B) {
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			net := transport.NewTCP()
			defer net.Close()
			eps, err := comm.NewGroup(net, fmt.Sprintf("bench-tp-%d", par), 2)
			if err != nil {
				b.Fatal(err)
			}
			defer comm.CloseGroup(eps)
			const msg = 4 * benchMB
			part := msg / par
			var recvWG sync.WaitGroup
			for ch := 0; ch < par; ch++ {
				recvWG.Add(1)
				go func(ch int) {
					defer recvWG.Done()
					for {
						buf, err := eps[1].RecvFrom(0, ch)
						if err != nil {
							return
						}
						comm.Release(buf)
					}
				}(ch)
			}
			// Per the buffer-ownership contract, each send surrenders a
			// fresh pool draw to the recycling SendToAsync path; the
			// receive side releases its buffers, so at steady state the
			// same few arrays circulate through the pool. The persistent
			// per-channel senders already overlap the writes, so no
			// goroutine fan-out is needed here.
			dones := make([]chan error, par)
			for ch := range dones {
				dones[ch] = make(chan error, 1)
			}
			b.SetBytes(msg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ch := 0; ch < par; ch++ {
					eps[0].SendToAsync(1, ch, comm.GetBuffer(part), dones[ch])
				}
				for ch := 0; ch < par; ch++ {
					if err := <-dones[ch]; err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			comm.CloseGroup(eps)
			recvWG.Wait()
		})
	}
}

// --- Figure 14/15: ring reduce-scatter (functional) ---------------------

func BenchmarkFig14ReduceScatterParallelism(b *testing.B) {
	const ranks = 6
	const dim = 512 * 1024 // 4MB of float64 per rank
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			benchRingReduceScatter(b, ranks, par, dim)
		})
	}
}

func BenchmarkFig15ReduceScatterScaling(b *testing.B) {
	const dim = 128 * 1024
	for _, ranks := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("executors=%d", ranks), func(b *testing.B) {
			benchRingReduceScatter(b, ranks, 2, dim)
		})
	}
}

func benchRingReduceScatter(b *testing.B, ranks, par, dim int) {
	net := transport.NewMem()
	defer net.Close()
	eps, err := comm.NewGroup(net, fmt.Sprintf("bench-rs-%d-%d-%d", ranks, par, dim), ranks)
	if err != nil {
		b.Fatal(err)
	}
	defer comm.CloseGroup(eps)
	nSegs := par * ranks
	inputs := make([][][]float64, ranks)
	for r := range inputs {
		segs := make([][]float64, nSegs)
		for s := range segs {
			seg := make([]float64, dim/nSegs)
			for i := range seg {
				seg[i] = float64(r + s + i)
			}
			segs[s] = seg
		}
		inputs[r] = segs
	}
	b.SetBytes(int64(dim * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, ep := range eps {
			wg.Add(1)
			go func(ep *comm.Endpoint) {
				defer wg.Done()
				// Copy inputs: reduce mutates segments in place.
				segs := make([][]float64, nSegs)
				for s, seg := range inputs[ep.Rank()] {
					segs[s] = append([]float64(nil), seg...)
				}
				if _, err := collective.RingReduceScatter(context.Background(), ep, segs, par, collective.F64Ops()); err != nil {
					b.Error(err)
				}
			}(ep)
		}
		wg.Wait()
	}
}

// --- Figure 16: aggregation strategies (functional) ----------------------

func BenchmarkFig16Aggregation(b *testing.B) {
	for _, dim := range []int{1 << 10, 1 << 17, 1 << 20} { // 8KB, 1MB, 8MB
		for _, strat := range []mllib.Strategy{mllib.StrategyTree, mllib.StrategyTreeIMM, mllib.StrategySplit} {
			b.Run(fmt.Sprintf("bytes=%d/%v", dim*8, strat), func(b *testing.B) {
				ctx, err := rdd.NewContext(rdd.Config{
					Name:             fmt.Sprintf("bench-agg-%d-%v-%d", dim, strat, b.N),
					NumExecutors:     4,
					CoresPerExecutor: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer ctx.Close()
				samples := rdd.Generate(ctx, 16, func(part int) ([]int64, error) {
					out := make([]int64, 64)
					for i := range out {
						out[i] = int64(part*64 + i)
					}
					return out, nil
				}).Cache()
				if _, err := rdd.Count(samples); err != nil {
					b.Fatal(err)
				}
				seqOp := func(acc []float64, v int64) []float64 {
					acc[int(v)%dim]++
					return acc
				}
				b.SetBytes(int64(dim * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mllib.AggregateF64Ctx(context.Background(), samples, dim, seqOp, strat, 2, 4); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 17: end-to-end training (functional) -------------------------

func BenchmarkFig17EndToEnd(b *testing.B) {
	for _, strat := range []mllib.Strategy{mllib.StrategyTree, mllib.StrategySplit} {
		b.Run(strat.String(), func(b *testing.B) {
			ctx, err := rdd.NewContext(rdd.Config{
				Name:             fmt.Sprintf("bench-e2e-%v-%d", strat, b.N),
				NumExecutors:     4,
				CoresPerExecutor: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ctx.Close()
			p, err := data.ProfileByName("kdd10")
			if err != nil {
				b.Fatal(err)
			}
			scaled := p.Scaled(20_000) // big-aggregator regime: ~1000 features
			pts := data.GenClassification(scaled.ClassificationSpec(1))
			train := rdd.FromSlice(ctx, pts, ctx.TotalCores()).Cache()
			if _, err := rdd.Count(train); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mllib.TrainLogisticRegression(train, mllib.LogisticRegressionConfig{
					NumFeatures: scaled.Features,
					GD:          mllib.GDConfig{Iterations: 3, StepSize: 1, Strategy: strat},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 18: strong scaling simulation --------------------------------

func BenchmarkFig18StrongScalingSim(b *testing.B) {
	w, err := sim.WorkloadByName("LDA-N")
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []sim.AggStrategy{sim.AggTree, sim.AggSplit} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunWorkload(sim.RunParams{
					Cluster: sim.AWS(), Workload: w, Strategy: strat, Nodes: 10,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
