package rdd

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/blockmanager"
	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/mutobj"
	"sparker/internal/obsv"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// Executor is one worker process: a task server with CoresPerExecutor
// concurrent slots, a block store shard, a mutable object manager and a
// communicator endpoint. It receives task descriptions from the driver
// over the transport and returns serialized results the same way.
//
// Under elastic membership the endpoint and ring rank are no longer
// fixed at boot: the driver's reconfiguration protocol pushes a fresh
// endpoint (new comm group, new rank, new ring size) over the control
// channel at each membership epoch, and the executor swaps it in
// atomically. Tasks read the rank/endpoint at dispatch time, so a task
// admitted under epoch E that starts after E+1 installs uses E+1's
// ring — stale-epoch traffic cannot form.
type Executor struct {
	ctx  *Context
	id   int
	host string
	// gen is the registry epoch this incarnation joined at (1 for boot
	// executors). Slot ids are reused across kill-and-replace, so
	// teardown keyed by id alone would clobber a replacement that
	// adopted the slot; the generation identifies exactly one
	// incarnation.
	gen  uint64
	rank atomic.Int32

	store *blockmanager.Store
	mut   *mutobj.Manager
	ep    atomic.Pointer[comm.Endpoint]
	reg   *metrics.Registry // this executor's instruments
	cache sync.Map          // "rdd/<id>/<part>" -> materialized partition

	lis   transport.Listener
	queue chan taskMsg
	quit  chan struct{}
	wg    sync.WaitGroup

	// ctrl is this executor's control conn to the driver's member
	// service; ctrlMu serializes heartbeats and protocol acks on it.
	ctrl   transport.Conn
	ctrlMu sync.Mutex

	// pending is the endpoint built in reconfiguration phase 1, swapped
	// live at phase 2's commit.
	pendMu      sync.Mutex
	pending     *comm.Endpoint
	pendingRank int
	pendingPar  int

	closeOnce sync.Once
}

// taskMsg is one task dispatched to this executor, paired with the
// connection its result must return on.
type taskMsg struct {
	conn    *lockedConn
	jobID   int64
	task    int
	attempt int
	// trace is the stage span propagated in the task envelope; invalid
	// for untraced jobs.
	trace trace.SpanContext
}

// lockedConn serializes concurrent result writes from worker slots.
type lockedConn struct {
	mu sync.Mutex
	c  transport.Conn
}

func (lc *lockedConn) send(b []byte) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.c.Send(b)
}

// sendPooled sends a frame drawn from the wire pool and returns it to
// the pool when the transport copied it out (TCP). A retaining
// transport (in-memory) hands the receiver the slice itself, and the
// receiver releases it.
func (lc *lockedConn) sendPooled(b []byte) error {
	err := lc.send(b)
	if sr, ok := lc.c.(transport.SendRetainer); ok && !sr.SendRetainsBuffer() {
		transport.PutBuf(b)
	}
	return err
}

func taskAddr(name string, id int) transport.Addr {
	return transport.Addr(fmt.Sprintf("exec/%s/%d/tasks", name, id))
}

// listenRetry retries a transport Listen briefly: a replacement
// executor adopting a dead slot can race the previous incarnation's
// teardown for the slot's well-known addresses.
func listenRetry(net transport.Network, addr transport.Addr) (transport.Listener, error) {
	var lis transport.Listener
	var err error
	for i := 0; i < 40; i++ {
		if lis, err = net.Listen(addr); err == nil {
			return lis, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil, err
}

// newExecutor boots one executor. rank >= 0 is the boot path: the
// epoch-1 endpoint is created inline (the caller wires the ring).
// rank < 0 is the elastic join path: the executor starts without an
// endpoint and receives one through the first reconfiguration push.
// gen is the registry epoch of the incarnation's join (1 at boot).
func newExecutor(ctx *Context, id int, host string, rank int, gen uint64) (*Executor, error) {
	var store *blockmanager.Store
	var err error
	if rank >= 0 {
		store, err = blockmanager.NewStore(ctx.net, ctx.ExecutorStoreName(id))
	} else {
		// A joiner adopting a dead slot may race the old incarnation's
		// store teardown; retry until the address frees.
		for i := 0; i < 40; i++ {
			if store, err = blockmanager.NewStore(ctx.net, ctx.ExecutorStoreName(id)); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if err != nil {
		return nil, err
	}
	var ep *comm.Endpoint
	if rank >= 0 {
		ep, err = comm.NewEndpoint(ctx.net, ringGroup(ctx.conf.Name, 1), rank, ctx.conf.NumExecutors)
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	lis, err := listenRetry(ctx.net, taskAddr(ctx.conf.Name, id))
	if err != nil {
		store.Close()
		if ep != nil {
			ep.Close()
		}
		return nil, err
	}
	ctrl, err := ctx.net.Dial(ctrlAddr(ctx.conf.Name))
	if err != nil {
		store.Close()
		if ep != nil {
			ep.Close()
		}
		lis.Close()
		return nil, err
	}
	e := &Executor{
		ctx:   ctx,
		id:    id,
		host:  host,
		gen:   gen,
		store: store,
		mut:   mutobj.NewManager(),
		reg:   metrics.NewRegistry(),
		lis:   lis,
		queue: make(chan taskMsg, 4096),
		quit:  make(chan struct{}),
		ctrl:  ctrl,
	}
	e.rank.Store(int32(rank))
	if ep != nil {
		ep.SetMetrics(e.reg)
		e.ep.Store(ep)
	}
	store.SetMetrics(e.reg)
	if err := e.ctrlSend(ctrlMsg{Kind: ctrlHello, Exec: id, Epoch: gen}); err != nil {
		e.kill()
		return nil, fmt.Errorf("rdd: executor %d hello: %w", id, err)
	}
	for c := 0; c < ctx.conf.CoresPerExecutor; c++ {
		e.wg.Add(1)
		go e.worker()
	}
	go e.serve()
	go e.ctrlRecv()
	go e.heartbeat()
	return e, nil
}

// endpoint returns the executor's current communicator endpoint (nil
// for a joiner that has not been committed into a ring yet).
func (e *Executor) endpoint() *comm.Endpoint { return e.ep.Load() }

// rankNow returns the executor's current ring rank (-1 before its
// first commit).
func (e *Executor) rankNow() int { return int(e.rank.Load()) }

func (e *Executor) ctrlSend(m ctrlMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	e.ctrlMu.Lock()
	defer e.ctrlMu.Unlock()
	return e.ctrl.Send(b)
}

// sendLeave announces a voluntary departure on the control channel.
func (e *Executor) sendLeave() error {
	return e.ctrlSend(ctrlMsg{Kind: ctrlLeave, Exec: e.id})
}

// heartbeat keeps the driver's failure detector fed.
func (e *Executor) heartbeat() {
	t := time.NewTicker(hbInterval)
	defer t.Stop()
	for {
		select {
		case <-e.quit:
			return
		case <-t.C:
			if e.ctrlSend(ctrlMsg{Kind: ctrlHB, Exec: e.id}) != nil {
				return
			}
		}
	}
}

// ctrlRecv executes the executor side of the reconfiguration protocol:
// phase 1 (reconf) builds and listens an endpoint for the new epoch's
// comm group; phase 2 (commit) wires its ring and swaps it live,
// closing the previous epoch's endpoint so stale collectives fail fast
// with classified errors. A step that fails sends no ack — the driver's
// timeout evicts this executor rather than installing a broken ring.
func (e *Executor) ctrlRecv() {
	for {
		b, err := e.ctrl.Recv()
		if err != nil {
			return
		}
		var m ctrlMsg
		if json.Unmarshal(b, &m) != nil {
			continue
		}
		switch m.Kind {
		case ctrlReconf:
			ep, err := comm.NewEndpoint(e.ctx.net, m.Group, m.Rank, m.Size)
			if err != nil {
				continue
			}
			ep.SetMetrics(e.reg)
			e.pendMu.Lock()
			if e.pending != nil {
				e.pending.Close()
			}
			e.pending, e.pendingRank, e.pendingPar = ep, m.Rank, m.Parallelism
			e.pendMu.Unlock()
			e.ctrlSend(ctrlMsg{Kind: ctrlReconfAck, Exec: e.id, Epoch: m.Epoch})
		case ctrlCommit:
			e.pendMu.Lock()
			ep, rank, par := e.pending, e.pendingRank, e.pendingPar
			e.pending = nil
			e.pendMu.Unlock()
			if ep != nil {
				if err := ep.ConnectRing(par); err != nil {
					ep.Close()
					continue
				}
				old := e.ep.Swap(ep)
				e.rank.Store(int32(rank))
				if old != nil {
					old.Close()
				}
			}
			e.ctrlSend(ctrlMsg{Kind: ctrlCommitAck, Exec: e.id, Epoch: m.Epoch})
		}
	}
}

// serve accepts task connections (the driver opens one) and feeds the
// slot queue.
func (e *Executor) serve() {
	for {
		c, err := e.lis.Accept()
		if err != nil {
			return
		}
		go e.readTasks(&lockedConn{c: c})
	}
}

func (e *Executor) readTasks(lc *lockedConn) {
	for {
		b, err := lc.c.Recv()
		if err != nil {
			return
		}
		jobID, task, attempt, tc, err := decodeTaskFrame(b)
		if err != nil {
			continue
		}
		select {
		case e.queue <- taskMsg{conn: lc, jobID: jobID, task: task, attempt: attempt, trace: tc}:
		case <-e.quit:
			return
		}
	}
}

// worker is one core: it pulls tasks and executes them. Rank and
// endpoint are refreshed per task — membership reconfigurations swap
// them between dispatches.
func (e *Executor) worker() {
	defer e.wg.Done()
	ec := &ExecContext{
		ID:       e.id,
		Host:     e.host,
		Cores:    e.ctx.conf.CoresPerExecutor,
		Store:    e.store,
		MutObjs:  e.mut,
		Registry: e.reg,
		exec:     e,
	}
	for {
		select {
		case tm := <-e.queue:
			ec.Rank = e.rankNow()
			ec.Comm = e.endpoint()
			payload, taskErr := e.runTask(ec, tm)
			frame := encodeResultFrame(ec.resultBuf, tm.jobID, tm.task, tm.attempt, payload, taskErr)
			ec.resultBuf = nil
			// A failed send is a severed task channel: the driver's
			// scheduler learns of it through the executor-lost path.
			_ = tm.conn.sendPooled(frame)
		case <-e.quit:
			return
		}
	}
}

// runTask executes one task, converting panics into task failures —
// the engine must survive user-code bugs the way Spark does.
func (e *Executor) runTask(ec *ExecContext, tm taskMsg) (payload []byte, taskErr error) {
	j, ok := e.ctx.jobs.Load(tm.jobID)
	if !ok {
		return nil, fmt.Errorf("rdd: unknown job %d", tm.jobID)
	}
	if tr := e.ctx.conf.Tracer; tr != nil && tm.trace.Valid() {
		span := tr.StartSpan("task", tm.trace)
		span.SetInt("exec", int64(e.id))
		span.SetAttr("host", e.host)
		span.SetInt("job", tm.jobID)
		span.SetInt("task", int64(tm.task))
		span.SetInt("attempt", int64(tm.attempt))
		// ec is owned by this worker for the task's duration, so the
		// current task span can live on it for Instrument to pick up.
		ec.span = span.Context()
		defer func() {
			ec.span = trace.SpanContext{}
			span.EndErr(taskErr)
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			payload = nil
			taskErr = fmt.Errorf("rdd: task %d/%d panicked: %v\n%s", tm.jobID, tm.task, r, debug.Stack())
		}
	}()
	jb := j.(*job)
	if e.ctx.conf.Obsv != nil {
		// Continuous-profiling tags: CPU samples taken while this task
		// runs carry its job/executor labels, so a pprof profile
		// scraped from /debug/pprof attributes hot code per stage.
		pprof.Do(context.Background(), pprof.Labels(
			"sparker_job", strconv.FormatInt(tm.jobID, 10),
			"sparker_exec", strconv.Itoa(e.id),
		), func(context.Context) {
			payload, taskErr = jb.fn(ec, tm.task, tm.attempt)
		})
		return payload, taskErr
	}
	return jb.fn(ec, tm.task, tm.attempt)
}

// shutdown closes every resource the executor owns exactly once.
func (e *Executor) shutdown() {
	e.closeOnce.Do(func() {
		close(e.quit)
		e.lis.Close()
		e.ctrl.Close()
		if ep := e.ep.Load(); ep != nil {
			ep.Close()
		}
		e.pendMu.Lock()
		if e.pending != nil {
			e.pending.Close()
			e.pending = nil
		}
		e.pendMu.Unlock()
		e.store.Close()
	})
}

// close is the graceful path: resources close and the call waits for
// worker slots to drain.
func (e *Executor) close() {
	e.shutdown()
	e.wg.Wait()
}

// kill is the chaos path: everything closes immediately — severing the
// ctrl conn, the task channel, the block store and the ring endpoint —
// and worker drain happens in the background. In-flight ring steps and
// task sends observe closed conns at once, which is exactly the failure
// the driver's detector and the collectives' classified-error paths are
// built to absorb.
func (e *Executor) kill() {
	e.shutdown()
	go e.wg.Wait()
}

// ExecContext is the executor-side view handed to task closures.
type ExecContext struct {
	// ID is the executor index; Host its hostname; Rank its ring rank
	// under the membership epoch current at the task's dispatch.
	ID   int
	Host string
	Rank int
	// Cores is the number of task slots on this executor.
	Cores int
	// Store is the executor's block shard.
	Store *blockmanager.Store
	// MutObjs is the executor's mutable object manager (IMM state).
	MutObjs *mutobj.Manager
	// Comm is the executor's scalable-communicator endpoint for the
	// membership epoch current at the task's dispatch.
	Comm *comm.Endpoint
	// Registry is the executor's instrument registry; hot paths observe
	// into it contention-free and the driver merges on demand
	// (Context.MergedMetrics).
	Registry *metrics.Registry

	exec *Executor
	// span is the current task's span, set by runTask for the task's
	// duration. Each worker owns its ExecContext, so no lock is needed.
	span trace.SpanContext
	// resultBuf is the running task's ResultBuf draw, consumed by the
	// worker when it seals the result frame.
	resultBuf []byte
}

// ResultBuf returns an empty buffer from the wire pool with room for an
// n-byte payload and the result-frame trailer. A task that appends its
// payload to it and returns the appended slice has that payload sent as
// the result frame in place — encoded once, never copied executor-side.
// One draw per task (a second abandons the first to the garbage
// collector); the buffer belongs to the engine again when the task
// returns, whatever the task returns.
func (ec *ExecContext) ResultBuf(n int) []byte {
	ec.resultBuf = transport.GetBuf(n + resultTrailerSize)[:0]
	return ec.resultBuf
}

// Context returns the driver context. Task closures use it only for
// cluster geometry (executor counts, store names), never to schedule.
func (ec *ExecContext) Context() *Context { return ec.exec.ctx }

// TaskSpan returns the running task's span context (invalid when the
// job is untraced).
func (ec *ExecContext) TaskSpan() trace.SpanContext { return ec.span }

// Instrument returns ctx carrying the executor's metrics registry and,
// when tracing is on, the tracer + current task span — the context
// shape the collectives read their telemetry handles from. Task
// closures wrap the context they pass to collective/core calls with
// this so ring-step spans nest under the task.
func (ec *ExecContext) Instrument(ctx context.Context) context.Context {
	ctx = metrics.NewContext(ctx, ec.Registry)
	if tr := ec.exec.ctx.conf.Tracer; tr != nil {
		ctx = trace.NewContext(ctx, tr, ec.span)
	}
	if obs := ec.exec.ctx.conf.Obsv; obs != nil {
		ctx = obsv.NewContext(ctx, obs.ExecRing(ec.ID))
	}
	return ctx
}

// CacheGet returns a cached partition.
func (ec *ExecContext) CacheGet(key string) (any, bool) {
	return ec.exec.cache.Load(key)
}

// CachePut stores a materialized partition.
func (ec *ExecContext) CachePut(key string, v any) {
	ec.exec.cache.Store(key, v)
}
