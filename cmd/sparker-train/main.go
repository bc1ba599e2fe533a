// Command sparker-train trains an MLlib-style model on the in-process
// engine with a chosen aggregation strategy, printing per-iteration
// losses and the aggregation phase breakdown — a functional end-to-end
// of the paper's workloads at laptop scale.
//
// Usage:
//
//	sparker-train -model lr  -profile avazu -scale 20000 -strategy split
//	sparker-train -model svm -data mydata.libsvm -strategy tree
//	sparker-train -model lda -profile nytimes -scale 2000 -topics 10
//	sparker-train -model lr -eventlog run.log -trace   # span records too
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"sparker/internal/data"
	"sparker/internal/eventlog"
	"sparker/internal/linalg"
	"sparker/internal/metrics"
	"sparker/internal/mllib"
	"sparker/internal/obsv"
	"sparker/internal/rdd"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

func main() {
	model := flag.String("model", "lr", "model: lr, svm, lda or kmeans")
	profile := flag.String("profile", "avazu", "synthetic dataset profile (Table 2 name)")
	scale := flag.Int("scale", 20000, "downscale factor for the profile")
	dataFile := flag.String("data", "", "libsvm input file (overrides -profile for lr/svm)")
	strategy := flag.String("strategy", "split", "aggregation: tree, imm, split or allreduce")
	executors := flag.Int("executors", 4, "simulated executors")
	cores := flag.Int("cores", 2, "cores per executor")
	iters := flag.Int("iters", 10, "training iterations")
	topics := flag.Int("topics", 10, "LDA topic count")
	parallelism := flag.Int("parallelism", 4, "split-aggregation ring channels: at most P; the ring uses min(P, ⌈aggregator bytes ÷ chunk bytes⌉)")
	seed := flag.Int64("seed", 1, "seed")
	saveModel := flag.String("save-model", "", "write the trained model here (an SPKM file; mllib.LoadModel reads it)")
	eventLogPath := flag.String("eventlog", "", "write a history log (JSON lines) to this file")
	traceRun := flag.Bool("trace", false, "record spans to the event log (requires -eventlog); analyze with sparker-analyze -chrome-trace")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text metrics on this address (e.g. 127.0.0.1:9091) while training")
	obsvDir := flag.String("obsv", "", "enable the always-on flight recorder, writing postmortem bundles to this directory")
	chaos := flag.String("chaos", "", "inject a transport fault for demos: ring-kill (one ring connection dies mid-run)")
	stepDeadline := flag.Duration("step-deadline", 0, "per-step ring collective deadline (0: engine default; lr/svm only)")
	flag.Parse()

	strat, err := mllib.ParseStrategy(*strategy)
	if err != nil {
		fail(err)
	}
	var logger *eventlog.Logger
	if *eventLogPath != "" {
		f, err := os.Create(*eventLogPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		logger = eventlog.New(f)
		defer logger.Flush()
	}
	var tracer *trace.Tracer
	if *traceRun {
		if logger == nil {
			fail(fmt.Errorf("-trace requires -eventlog (spans are log records)"))
		}
		// Span export goes through the async exporter so span-heavy runs
		// never block a hot path on log I/O. Closed (drained) before the
		// logger flushes.
		exp := trace.NewAsyncExporter(trace.NewLogExporter(logger), 0)
		defer exp.Close()
		tracer = trace.New(exp)
	}
	var obs *obsv.Observer
	if *obsvDir != "" {
		obs = obsv.New(obsv.Config{BundleDir: *obsvDir})
	}
	var network transport.Network
	switch *chaos {
	case "":
	case "ring-kill":
		// Kill rank 1's ring listener after its boot handshake: the
		// first collective step dies, the engine classifies the peer
		// failure and falls back — exactly the anomaly the flight
		// recorder is built to capture (make obsv-demo drives this).
		victim := transport.Addr("comm/train/ring/1")
		network = transport.NewFaulty(transport.NewMem(), *seed, &transport.FaultRule{
			Match:     func(a transport.Addr) bool { return a == victim },
			Kind:      transport.FaultKill,
			AfterMsgs: 1,
		})
	default:
		fail(fmt.Errorf("unknown -chaos mode %q (ring-kill)", *chaos))
	}
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             "train",
		NumExecutors:     *executors,
		CoresPerExecutor: *cores,
		RingParallelism:  *parallelism,
		EventLog:         logger,
		Tracer:           tracer,
		Obsv:             obs,
		Network:          network,
	})
	if err != nil {
		fail(err)
	}
	defer ctx.Close()

	if *metricsAddr != "" {
		srv, err := metrics.NewMuxServer(*metricsAddr, func() (*metrics.Registry, *metrics.Recorder) {
			return ctx.MergedMetrics(), ctx.Metrics()
		}, map[string]http.Handler{"/debug/": ctx.DebugHandler()})
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("serving metrics on http://%s/metrics (debug plane at /debug/sparker/, profiles at /debug/pprof/)\n", srv.Addr())
	}

	start := time.Now()
	var trained mllib.Model
	switch *model {
	case "lr", "svm":
		trained = trainLinear(ctx, *model, *dataFile, *profile, *scale, *iters, strat, *seed, *stepDeadline)
	case "lda":
		trainLDA(ctx, *profile, *scale, *topics, *iters, strat, *seed, *saveModel)
	case "kmeans":
		trained = trainKMeans(ctx, *profile, *scale, *topics, *iters, strat, *seed)
	default:
		fail(fmt.Errorf("unknown model %q (lr, svm, lda, kmeans)", *model))
	}
	if *saveModel != "" && trained != nil {
		if err := mllib.SaveModelFile(*saveModel, trained); err != nil {
			fail(err)
		}
		fmt.Printf("model saved to %s\n", *saveModel)
	}
	rec := ctx.Metrics()
	fmt.Printf("\nwall time           %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("agg-compute         %v\n", rec.Get(metrics.PhaseAggCompute).Round(time.Millisecond))
	fmt.Printf("agg-reduce          %v\n", rec.Get(metrics.PhaseAggReduce).Round(time.Millisecond))
	if hs := ctx.MergedMetrics().Histogram(metrics.HistRingStepNS).Snapshot(); hs.Count > 0 {
		fmt.Printf("ring-step latency   p50 %v  p95 %v  p99 %v  (%d steps)\n",
			time.Duration(hs.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(hs.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(hs.Quantile(0.99)).Round(time.Microsecond),
			hs.Count)
	}
	if obs != nil {
		// Drain any bundle dumps still queued behind the anomaly that
		// tripped them before the process exits.
		obs.Flush(10 * time.Second)
		if bs := obs.Bundles(); len(bs) > 0 {
			fmt.Printf("flight recorder wrote %d postmortem bundle(s):\n", len(bs))
			for _, b := range bs {
				fmt.Printf("  %s\n", b)
			}
			fmt.Println("inspect with: sparker-analyze -postmortem <bundle>")
		}
	}
}

func trainLinear(ctx *rdd.Context, model, dataFile, profile string, scale, iters int, strat mllib.Strategy, seed int64, stepDeadline time.Duration) mllib.Model {
	var points []mllib.LabeledPoint
	var dim int
	if dataFile != "" {
		f, err := os.Open(dataFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		points, err = data.ReadLibSVM(f, 0)
		if err != nil {
			fail(err)
		}
		if len(points) == 0 {
			fail(fmt.Errorf("empty dataset %s", dataFile))
		}
		dim = points[0].Features.Dim
	} else {
		p, err := data.ProfileByName(profile)
		if err != nil {
			fail(err)
		}
		if p.Task != data.TaskClassification {
			fail(fmt.Errorf("profile %s is not a classification dataset", profile))
		}
		sp := p.Scaled(scale)
		points = data.GenClassification(sp.ClassificationSpec(seed))
		dim = sp.Features
	}
	parts := ctx.TotalCores()
	train := rdd.FromSlice(ctx, points, parts).Cache()
	fmt.Printf("training %s on %d samples × %d features, %d executors × %d cores, strategy=%v\n",
		model, len(points), dim, ctx.NumExecutors(), ctx.CoresPerExecutor(), strat)

	gd := mllib.GDConfig{Iterations: iters, StepSize: 1.0, Strategy: strat, Seed: seed, StepDeadline: stepDeadline}
	var m *mllib.LinearModel
	var err error
	if model == "svm" {
		m, err = mllib.TrainSVM(train, mllib.SVMConfig{NumFeatures: dim, GD: gd})
	} else {
		m, err = mllib.TrainLogisticRegression(train, mllib.LogisticRegressionConfig{NumFeatures: dim, GD: gd})
	}
	if err != nil {
		fail(err)
	}
	for i, l := range m.Losses {
		fmt.Printf("iteration %3d  loss %.6f\n", i+1, l)
	}
	fmt.Printf("training accuracy   %.4f\n", m.Accuracy(points))
	return m
}

// trainLDA saves through LDAModel.Save itself: LDA predates the
// unified Model interface (document-topic inference, not pointwise
// prediction), so it keeps its own persistence pair.
func trainLDA(ctx *rdd.Context, profile string, scale, topics, iters int, strat mllib.Strategy, seed int64, savePath string) {
	p, err := data.ProfileByName(profile)
	if err != nil {
		fail(err)
	}
	if p.Task != data.TaskTopicModel {
		fail(fmt.Errorf("profile %s is not a topic-model dataset", profile))
	}
	sp := p.Scaled(scale)
	docs := data.GenCorpus(sp.CorpusSpec(topics, seed))
	corpus := rdd.FromSlice(ctx, docs, ctx.TotalCores()).Cache()
	fmt.Printf("training LDA (K=%d) on %d docs, vocab %d, strategy=%v\n",
		topics, len(docs), sp.Features, strat)

	m, err := mllib.TrainLDA(corpus, mllib.LDAConfig{
		K: topics, Vocab: sp.Features, Iterations: iters, Strategy: strat, Seed: seed,
	})
	if err != nil {
		fail(err)
	}
	for i, b := range m.Bounds {
		fmt.Printf("iteration %3d  bound %.6f\n", i+1, b)
	}
	for k := 0; k < topics && k < 5; k++ {
		fmt.Printf("topic %d top terms: %v\n", k, m.TopTerms(k, 8))
	}
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			fail(err)
		}
		if err := m.Save(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("model saved to %s\n", savePath)
	}
}

// trainKMeans clusters a synthetic classification profile's feature
// vectors (labels ignored); -topics doubles as K.
func trainKMeans(ctx *rdd.Context, profile string, scale, k, iters int, strat mllib.Strategy, seed int64) mllib.Model {
	p, err := data.ProfileByName(profile)
	if err != nil {
		fail(err)
	}
	if p.Task != data.TaskClassification {
		fail(fmt.Errorf("profile %s is not a classification dataset", profile))
	}
	sp := p.Scaled(scale)
	pts := data.GenClassification(sp.ClassificationSpec(seed))
	vecs := make([]linalg.SparseVector, len(pts))
	for i, pt := range pts {
		vecs[i] = pt.Features
	}
	points := rdd.FromSlice(ctx, vecs, ctx.TotalCores()).Cache()
	fmt.Printf("k-means (K=%d) on %d points × %d features, strategy=%v\n",
		k, len(vecs), sp.Features, strat)
	m, err := mllib.TrainKMeans(points, mllib.KMeansConfig{
		K: k, NumFeatures: sp.Features, Iterations: iters, Strategy: strat,
	})
	if err != nil {
		fail(err)
	}
	for i, c := range m.CostHistory {
		fmt.Printf("iteration %3d  cost %.2f\n", i+1, c)
	}
	return m
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sparker-train:", err)
	os.Exit(1)
}
