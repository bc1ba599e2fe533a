// Package rdd is the dataflow engine substrate: a Spark-like driver /
// executor system running in one process. Executors are real
// concurrency domains — each owns a pool of worker cores, a block
// store shard, a mutable object manager and a scalable-communicator
// endpoint — and every task result crosses the driver/executor
// boundary serialized through the transport, so the serialization and
// communication behaviour Sparker optimizes is really present.
//
// The engine intentionally mirrors the pieces of Spark the paper
// touches: ResultStage-style jobs (RunJob), a reduced-result stage with
// whole-stage retry for in-memory merge (JobSpec.StageCleanup),
// statically placed tasks for SpawnRDD (JobSpec.Placement), tree
// combine rounds that exchange partial aggregates as blocks, and
// MEMORY_ONLY caching.
package rdd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/blockmanager"
	"sparker/internal/comm"
	"sparker/internal/eventlog"
	"sparker/internal/metrics"
	"sparker/internal/obsv"
	"sparker/internal/sched"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// Config describes the simulated cluster an engine runs on.
type Config struct {
	// Name distinguishes multiple contexts sharing a Network.
	Name string
	// NumExecutors is the number of executor processes (default 2).
	NumExecutors int
	// CoresPerExecutor is the number of concurrent task slots per
	// executor (default 2).
	CoresPerExecutor int
	// Hosts assigns a hostname to each executor for topology-aware rank
	// ordering. Defaults to every executor on a distinct host.
	Hosts []string
	// Network carries all driver/executor and executor/executor bytes.
	// Defaults to an unshaped in-memory network owned by the context.
	Network transport.Network
	// RingParallelism is the PDR channel count connected for split
	// aggregation (default 4, the paper's production setting): at most P
	// channels; the ring uses min(P, ⌈aggregator bytes ÷ B⌉), B the
	// ring's chunk size (collective.RingChannels).
	RingParallelism int
	// Speculation enables the scheduler's straggler mitigation: a task
	// running well past the stage's median task duration (the thresholds
	// are sched's constants) gets one duplicate attempt on a different
	// executor, first result wins. Off by default; never applies to
	// executor-targeted or collective (gang) stages regardless of this
	// switch.
	Speculation bool
	// EventLog, when non-nil, receives structured history-log events
	// (phase timings) the way Spark's history server does — the data
	// source of the paper's Section-2 bottleneck analysis.
	EventLog *eventlog.Logger
	// Tracer, when non-nil, records distributed spans for every job:
	// driver stages, executor tasks and collective ring steps, stitched
	// by span IDs propagated through task envelopes and ring frames.
	// Nil (the default) disables tracing at true zero overhead.
	Tracer *trace.Tracer
	// Obsv, when non-nil, is the flight recorder: the engine binds it
	// to the cluster at startup (one ring per executor plus the
	// driver's), tees markers/phases/spans into it, and tags tasks for
	// continuous profiling. When Obsv is set and Tracer is nil, a
	// tracer exporting only to the recorder is installed so bundles
	// always contain correlated spans; when both are set, spans are
	// teed to both sinks. Nil keeps the engine bit-identical to the
	// recorder-less build.
	Obsv *obsv.Observer
}

const (
	// taskConnStripes is the number of task-channel connections the
	// driver opens per executor. On latency-shaped transports a single
	// connection caps launch/result throughput at one frame per network
	// latency; striping lets concurrent jobs' task traffic overlap
	// (core's async stages, Context.SubmitJob from many goroutines). Executors
	// accept any number of task connections and reply on the one each
	// task arrived on, so this is driver-only.
	taskConnStripes = 4
	// maxTaskAttempts bounds per-task retries for ordinary stages.
	maxTaskAttempts = 3
	// maxStageAttempts bounds whole-stage resubmissions for
	// reduced-result stages.
	maxStageAttempts = 3
)

func (c *Config) fill() error {
	if c.Name == "" {
		c.Name = "sparker"
	}
	if c.NumExecutors == 0 {
		c.NumExecutors = 2
	}
	if c.NumExecutors < 1 {
		return fmt.Errorf("rdd: NumExecutors must be >= 1, got %d", c.NumExecutors)
	}
	if c.CoresPerExecutor == 0 {
		c.CoresPerExecutor = 2
	}
	if c.CoresPerExecutor < 1 {
		return fmt.Errorf("rdd: CoresPerExecutor must be >= 1, got %d", c.CoresPerExecutor)
	}
	if c.Hosts == nil {
		c.Hosts = make([]string, c.NumExecutors)
		for i := range c.Hosts {
			c.Hosts[i] = fmt.Sprintf("node-%03d", i)
		}
	}
	if len(c.Hosts) != c.NumExecutors {
		return fmt.Errorf("rdd: len(Hosts)=%d != NumExecutors=%d", len(c.Hosts), c.NumExecutors)
	}
	if c.RingParallelism == 0 {
		c.RingParallelism = 4
	}
	return nil
}

// Context is the driver: it owns the executors and schedules jobs.
type Context struct {
	conf   Config
	net    transport.Network
	ownNet bool

	master      *blockmanager.Master
	driverStore *blockmanager.Store
	topo        comm.Topology // boot-time rank <-> executor assignment
	sched       *sched.Scheduler

	// memb is the membership plane: registry, control channel,
	// reconfiguration loop and the installed clusterView every
	// owner-math and placement decision resolves against.
	memb *memberSvc

	// execMu guards executors: the slot table grows when joins outrun
	// the boot size and entries nil out when members depart.
	execMu    sync.RWMutex
	executors []*Executor

	jobs   sync.Map // int64 -> *job
	nextID atomic.Int64

	// collectives tracks in-flight collective operations for the debug
	// plane (/debug/sparker/collectives); keys are trackSeq draws.
	collectives sync.Map // int64 -> CollectiveInfo
	trackSeq    atomic.Int64

	connMu sync.Mutex
	conns  [][]*lockedConn // driver -> executor task connections, striped
	connRR []uint32        // round-robin stripe cursor per executor (under connMu)

	rec *metrics.Recorder
	reg *metrics.Registry // driver-side instruments (driver store I/O)

	closeOnce sync.Once
	closeErr  error
}

// NewContext boots a cluster per conf: block manager master, one
// executor per slot with its store, mutobj manager, worker pool, a
// driver connection, and the communicator ring.
func NewContext(conf Config) (*Context, error) {
	if err := conf.fill(); err != nil {
		return nil, err
	}
	if conf.Obsv != nil {
		// Retain finished spans in the flight recorder, teeing to the
		// user's exporter when one is configured.
		conf.Tracer = trace.New(trace.Tee(conf.Tracer.Exporter(), conf.Obsv))
	}
	ctx := &Context{conf: conf, rec: metrics.NewRecorder(), reg: metrics.NewRegistry()}
	if conf.Network != nil {
		ctx.net = conf.Network
	} else {
		ctx.net = transport.NewMem()
		ctx.ownNet = true
	}

	var err error
	ctx.master, err = blockmanager.NewMaster(ctx.net)
	if err != nil {
		return nil, fmt.Errorf("rdd: starting block manager master: %w", err)
	}
	ctx.driverStore, err = blockmanager.NewStore(ctx.net, conf.Name+"/driver")
	if err != nil {
		ctx.Close()
		return nil, fmt.Errorf("rdd: starting driver store: %w", err)
	}
	ctx.driverStore.SetMetrics(ctx.reg)

	// Ring rank assignment is topology-aware: sorted by hostname.
	ctx.topo = comm.NewTopology(comm.RanksByHost(conf.Hosts))

	// The membership plane comes up before the executors: they dial its
	// control channel as part of boot.
	ctx.memb, err = newMemberSvc(ctx)
	if err != nil {
		ctx.Close()
		return nil, err
	}

	ctx.sched, err = sched.New(sched.Config{
		NumExecutors:     conf.NumExecutors,
		CoresPerExecutor: conf.CoresPerExecutor,
		DefaultPolicy:    sched.RoundRobin(),
		Speculation:      conf.Speculation,
		Metrics:          ctx.reg,
		Recorder:         ctx.rec,
		EventLog:         conf.EventLog,
		Tracer:           conf.Tracer,
		Obsv:             conf.Obsv,
	})
	if err != nil {
		ctx.Close()
		return nil, fmt.Errorf("rdd: starting scheduler: %w", err)
	}

	for i := 0; i < conf.NumExecutors; i++ {
		e, err := newExecutor(ctx, i, conf.Hosts[i], ctx.topo.RankOfExecutor(i), 1)
		if err != nil {
			ctx.Close()
			return nil, fmt.Errorf("rdd: starting executor %d: %w", i, err)
		}
		ctx.setExecutor(i, e)
	}
	// Eagerly wire the PDR so connection setup stays out of timed paths.
	if err := ctx.connectBootRing(); err != nil {
		ctx.Close()
		return nil, fmt.Errorf("rdd: connecting ring: %w", err)
	}
	if conf.Obsv != nil {
		conf.Obsv.Bind(obsv.Binding{
			Cluster: obsv.Geometry{
				Name:       conf.Name,
				Executors:  conf.NumExecutors,
				Cores:      conf.CoresPerExecutor,
				ExecOfRank: ctx.topo.ExecOfRank(),
			},
			Metrics: func() (*metrics.Registry, *metrics.Recorder) {
				return ctx.MergedMetrics(), ctx.rec
			},
			CollectExecRings: ctx.collectExecRings,
		})
	}
	return ctx, nil
}

// NumExecutors returns the slot-table size of the installed membership
// epoch: the bound for executor indices, dead slots included. At boot
// (and under fixed membership forever) this equals conf.NumExecutors;
// joins that outgrow the boot table raise it.
func (ctx *Context) NumExecutors() int {
	if cv := ctx.clusterView(); cv != nil {
		return cv.view.NumSlots()
	}
	return ctx.conf.NumExecutors
}

// CoresPerExecutor returns task slots per executor.
func (ctx *Context) CoresPerExecutor() int { return ctx.conf.CoresPerExecutor }

// TotalCores returns the cluster-wide slot count over live executors.
func (ctx *Context) TotalCores() int {
	if cv := ctx.clusterView(); cv != nil {
		return cv.view.NumLive() * ctx.conf.CoresPerExecutor
	}
	return ctx.conf.NumExecutors * ctx.conf.CoresPerExecutor
}

// RingParallelism returns the PDR parallelism for split aggregation.
func (ctx *Context) RingParallelism() int { return ctx.conf.RingParallelism }

// Metrics returns the context's phase recorder.
func (ctx *Context) Metrics() *metrics.Recorder { return ctx.rec }

// Tracer returns the configured span tracer (nil when tracing is off).
func (ctx *Context) Tracer() *trace.Tracer { return ctx.conf.Tracer }

// Registry returns the driver-side instrument registry.
func (ctx *Context) Registry() *metrics.Registry { return ctx.reg }

// MergedMetrics folds the driver's and every executor's instrument
// registry into one fresh registry — the cluster-wide view a metrics
// scrape or end-of-run report wants. Safe to call while jobs are
// running; each instrument contributes a point-in-time snapshot.
func (ctx *Context) MergedMetrics() *metrics.Registry {
	out := metrics.NewRegistry()
	out.Merge(ctx.reg)
	for _, e := range ctx.executorSnapshot() {
		if e != nil {
			out.Merge(e.reg)
		}
	}
	return out
}

// RecordPhase charges d to the named phase in the metrics recorder and
// emits a history-log event when event logging is enabled.
func (ctx *Context) RecordPhase(name string, d time.Duration, detail string) {
	ctx.rec.Add(name, d)
	ctx.conf.EventLog.Phase(name, d, detail)
	ctx.conf.Obsv.Phase(name, d, detail)
}

// RecordMarker bumps the named counter and emits a durationless marker
// event — how the engine records degradations like a ring collective
// falling back to tree aggregation.
func (ctx *Context) RecordMarker(name, detail string) {
	ctx.rec.Inc(name)
	ctx.conf.EventLog.Marker(name, detail)
	ctx.conf.Obsv.Marker(name, detail)
}

// Observer returns the configured flight recorder (nil when disabled).
func (ctx *Context) Observer() *obsv.Observer { return ctx.conf.Obsv }

// ExecutorStoreName returns the block store name of executor i.
func (ctx *Context) ExecutorStoreName(i int) string {
	return fmt.Sprintf("%s/exec-%d", ctx.conf.Name, i)
}

// RankOfExecutor returns the ring rank of executor i under the
// installed membership epoch (-1 for dead or out-of-range slots).
func (ctx *Context) RankOfExecutor(i int) int {
	cv := ctx.clusterView()
	if cv == nil {
		return ctx.topo.RankOfExecutor(i)
	}
	if i < 0 || i >= len(cv.rankOfExec) {
		return -1
	}
	return cv.rankOfExec[i]
}

// ExecutorOfRank returns the executor index holding ring rank r under
// the installed membership epoch (-1 when out of range).
func (ctx *Context) ExecutorOfRank(r int) int {
	cv := ctx.clusterView()
	if cv == nil {
		return ctx.topo.ExecutorOfRank(r)
	}
	if r < 0 || r >= len(cv.execOfRank) {
		return -1
	}
	return cv.execOfRank[r]
}

// Topology returns the boot-time rank <-> executor assignment (epoch
// 1, every configured executor alive). After a reconfiguration the
// live assignment is RankOfExecutor/ExecutorOfRank, which resolve
// through the installed membership epoch.
func (ctx *Context) Topology() comm.Topology { return ctx.topo }

// TopologyPolicy returns a placement policy aligning task index with
// ring rank under the installed membership epoch: collective stage
// task i lands on the executor holding rank i, so segment ownership
// and endpoint rank coincide.
func (ctx *Context) TopologyPolicy() sched.PlacementPolicy {
	if cv := ctx.clusterView(); cv != nil {
		return sched.NewTopologyAware(cv.execOfRank)
	}
	return sched.NewTopologyAware(ctx.topo.ExecOfRank())
}

// Close shuts the cluster down.
func (ctx *Context) Close() error {
	ctx.closeOnce.Do(func() {
		// The membership plane goes first: it stops evicting members over
		// conns the shutdown below is about to sever, and quiets the
		// reconfiguration loop.
		if ctx.memb != nil {
			ctx.memb.close()
		}
		ctx.connMu.Lock()
		for _, stripes := range ctx.conns {
			for _, lc := range stripes {
				if lc != nil {
					lc.c.Close()
				}
			}
		}
		ctx.conns = nil
		ctx.connMu.Unlock()
		// After the task connections: result readers have stopped, so
		// the scheduler drains cleanly and fails undelivered handles.
		if ctx.sched != nil {
			ctx.sched.Close()
		}
		// After the scheduler: a monitor mid-collection fails fast and
		// falls back to in-process ring snapshots for any queued dump.
		ctx.conf.Obsv.Unbind()
		for _, e := range ctx.executorSnapshot() {
			if e != nil {
				e.close()
			}
		}
		if ctx.driverStore != nil {
			ctx.driverStore.Close()
		}
		if ctx.master != nil {
			ctx.master.Close()
		}
		if ctx.ownNet && ctx.net != nil {
			ctx.closeErr = ctx.net.Close()
		}
	})
	return ctx.closeErr
}

// newJobID allocates a cluster-unique job id.
func (ctx *Context) newJobID() int64 { return ctx.nextID.Add(1) }

// NewOpID allocates a unique id for operations layered on the engine
// (aggregation state keys and block prefixes).
func (ctx *Context) NewOpID() int64 { return ctx.newJobID() }
