package main

import (
	"fmt"
	"time"

	"sparker/internal/mllib"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// fullRunIterations is the length of the checked training run.
const fullRunIterations = 20

// cluster is one set-up engine: its own network, a context of
// numExecutors × 1 core, the cached training set, and the weights the
// closed loop carries from one step to the next.
type cluster struct {
	w      workload
	net    transport.Network
	ctx    *rdd.Context
	points []mllib.LabeledPoint
	train  *rdd.RDD[mllib.LabeledPoint]
	gd     mllib.GDConfig
	wts    []float64
}

// setUp does what a user pays once after loading the data: boot the
// cluster, cache the training set and run one warm-up step, which packs
// the partitions into CSR blocks. conf carries only what differs from
// the standard geometry (executor count, telemetry sinks).
func setUp(w workload, points []mllib.LabeledPoint, conf rdd.Config) (*cluster, error) {
	c := &cluster{w: w, net: w.network(), points: points}
	conf.Name = w.Name
	if conf.NumExecutors == 0 {
		conf.NumExecutors = numExecutors
	}
	conf.CoresPerExecutor = 1
	conf.RingParallelism = ringParallelism
	conf.Network = c.net
	ctx, err := rdd.NewContext(conf)
	if err != nil {
		c.net.Close()
		return nil, fmt.Errorf("booting cluster: %w", err)
	}
	c.ctx = ctx
	c.train = rdd.FromSlice(ctx, c.points, ctx.TotalCores()).Cache()
	c.gd = mllib.GDConfig{Iterations: 1, Strategy: w.Strategy, Depth: treeDepth, Parallelism: ringParallelism}
	c.wts = make([]float64, w.Features)
	if _, err := c.step(); err != nil {
		c.close()
		return nil, fmt.Errorf("warm-up step: %w", err)
	}
	return c, nil
}

func (c *cluster) close() {
	c.ctx.Close()
	c.net.Close()
}

// step is the benchmark's operation: one gradient-descent iteration on
// the cached set, fed the previous step's weights. It returns the
// step's wall clock.
func (c *cluster) step() (time.Duration, error) {
	start := time.Now()
	wts, _, err := mllib.RunGradientDescent(c.train, mllib.LogisticGradient{}, mllib.SimpleUpdater{}, c.wts, c.gd)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	c.wts = wts
	return d, nil
}

// fullRun trains fullRunIterations iterations from zero weights and
// returns the loss history and the wall clock.
func (c *cluster) fullRun() ([]float64, time.Duration, error) {
	gd := c.gd
	gd.Iterations = fullRunIterations
	start := time.Now()
	_, losses, err := mllib.RunGradientDescent(c.train, mllib.LogisticGradient{}, mllib.SimpleUpdater{}, make([]float64, c.w.Features), gd)
	return losses, time.Since(start), err
}
