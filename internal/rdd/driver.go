package rdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sparker/internal/comm"
	"sparker/internal/metrics"
	"sparker/internal/sched"
	"sparker/internal/trace"
	"sparker/internal/transport"
)

// --- wire frames -------------------------------------------------------
//
// task frame:    jobID int64 | task int32 | attempt int32
//                [| traceID uint64 | parentSpanID uint64]   (traced jobs)
// result frame:  body | jobID int64 | task int32 | attempt int32 | status byte
//                body = payload bytes (status=resultOK) or error string
//
// The trailing trace identifiers are appended only when the stage runs
// under a tracer, and decodeTaskFrame accepts both lengths, so untraced
// deployments keep the exact 16-byte seed format.
//
// The result frame carries its fixed fields as a trailer so that the
// payload starts where the buffer starts: a task that built its payload
// in ExecContext.ResultBuf has the trailer appended in place (no copy
// on the way out), and the driver hands the payload to the job's waiter
// as the received buffer itself — the waiter may return it to the wire
// pool with transport.PutBuf once it has decoded it.
//
// Task errors cross the wire as strings, which would strip the error
// class a driver-side errors.Is needs to pick between retry and
// fallback. The status byte therefore encodes the classification: the
// executor maps comm sentinels to a status before serializing, and the
// driver re-attaches the matching sentinel when it reconstructs the
// error.

// Result frame status bytes. resultErr/resultOK keep the seed's 0/1
// encoding; classified failures extend it.
const (
	resultErr         = 0 // unclassified failure, message only
	resultOK          = 1
	resultPeerTimeout = 2 // comm.ErrPeerTimeout
	resultPeerDown    = 3 // comm.ErrPeerDown
	resultClosed      = 4 // comm.ErrClosed (endpoint closed under the task)
	resultMembership  = 5 // ErrMembershipChanged (stale epoch geometry)
)

// ErrMembershipChanged classifies a task failure whose cause was a
// membership reconfiguration racing the stage: the epoch (and with it
// ring geometry, endpoints, placement) moved between planning and
// execution. Collective callers retry such failures whole against the
// installed epoch. Defined here — not in core — because the sentinel
// must survive the result-frame wire crossing, and the frame codec
// lives at this layer.
var ErrMembershipChanged = errors.New("rdd: membership changed under the stage")

// resultStatus classifies a task error for the wire.
func resultStatus(err error) byte {
	switch {
	case err == nil:
		return resultOK
	case errors.Is(err, ErrMembershipChanged):
		return resultMembership
	case errors.Is(err, comm.ErrPeerTimeout):
		return resultPeerTimeout
	case errors.Is(err, comm.ErrPeerDown):
		return resultPeerDown
	case errors.Is(err, comm.ErrClosed):
		return resultClosed
	default:
		return resultErr
	}
}

// wireError is a task failure reconstructed driver-side: the original
// message with the classified sentinel re-attached for errors.Is.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// decodeWireError rebuilds the executor-side error from its wire form.
func decodeWireError(status byte, msg string) error {
	switch status {
	case resultPeerTimeout:
		return &wireError{msg: msg, sentinel: comm.ErrPeerTimeout}
	case resultPeerDown:
		return &wireError{msg: msg, sentinel: comm.ErrPeerDown}
	case resultClosed:
		return &wireError{msg: msg, sentinel: comm.ErrClosed}
	case resultMembership:
		return &wireError{msg: msg, sentinel: ErrMembershipChanged}
	default:
		return errors.New(msg)
	}
}

// Task frame sizes: the seed's 16-byte form and the traced 32-byte
// extension carrying traceID + parent (stage) span ID.
const (
	taskFrameSize       = 16
	taskFrameTracedSize = taskFrameSize + 16
)

func encodeTaskFrame(jobID int64, task, attempt int, tc trace.SpanContext) []byte {
	n := taskFrameSize
	if tc.Valid() {
		n = taskFrameTracedSize
	}
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, uint64(jobID))
	binary.LittleEndian.PutUint32(b[8:], uint32(int32(task)))
	binary.LittleEndian.PutUint32(b[12:], uint32(int32(attempt)))
	if tc.Valid() {
		binary.LittleEndian.PutUint64(b[16:], tc.TraceID)
		binary.LittleEndian.PutUint64(b[24:], tc.SpanID)
	}
	return b
}

func decodeTaskFrame(b []byte) (jobID int64, task, attempt int, tc trace.SpanContext, err error) {
	if len(b) < taskFrameSize {
		return 0, 0, 0, tc, fmt.Errorf("rdd: short task frame (%d bytes)", len(b))
	}
	jobID = int64(binary.LittleEndian.Uint64(b))
	task = int(int32(binary.LittleEndian.Uint32(b[8:])))
	attempt = int(int32(binary.LittleEndian.Uint32(b[12:])))
	if len(b) >= taskFrameTracedSize {
		tc.TraceID = binary.LittleEndian.Uint64(b[16:])
		tc.SpanID = binary.LittleEndian.Uint64(b[24:])
	}
	return jobID, task, attempt, tc, nil
}

// resultTrailerSize is the fixed tail of a result frame.
const resultTrailerSize = 17

// encodeResultFrame seals one task outcome into a pooled frame. buf is
// the task's ResultBuf draw (nil when it took none): a payload that was
// appended into it is sealed in place, anything else is copied into a
// fresh draw and buf goes back to the pool unused.
func encodeResultFrame(buf []byte, jobID int64, task, attempt int, payload []byte, taskErr error) []byte {
	status := resultStatus(taskErr)
	var b []byte
	switch {
	case status != resultOK:
		msg := taskErr.Error()
		b = append(transport.GetBuf(len(msg) + resultTrailerSize)[:0], msg...)
	case cap(buf) > 0 && len(payload) > 0 && &payload[0] == &buf[:1][0] &&
		cap(payload)-len(payload) >= resultTrailerSize:
		b, buf = payload, nil
	default:
		b = append(transport.GetBuf(len(payload) + resultTrailerSize)[:0], payload...)
	}
	if cap(buf) > 0 {
		transport.PutBuf(buf)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(jobID))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(task)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(attempt)))
	return append(b, status)
}

// decodeResultFrame splits a result frame. payload aliases b from its
// first byte (nil when the task returned nothing), so releasing payload
// releases the frame.
func decodeResultFrame(b []byte) (jobID int64, task, attempt int, payload []byte, taskErr, err error) {
	if len(b) < resultTrailerSize {
		return 0, 0, 0, nil, nil, fmt.Errorf("rdd: short result frame (%d bytes)", len(b))
	}
	body, t := b[:len(b)-resultTrailerSize], b[len(b)-resultTrailerSize:]
	jobID = int64(binary.LittleEndian.Uint64(t))
	task = int(int32(binary.LittleEndian.Uint32(t[8:])))
	attempt = int(int32(binary.LittleEndian.Uint32(t[12:])))
	if t[16] == resultOK {
		if len(body) > 0 {
			payload = body
		}
	} else {
		msg := string(body)
		if msg == "" {
			msg = "rdd: task failed without message"
		}
		taskErr = decodeWireError(t[16], msg)
	}
	return jobID, task, attempt, payload, taskErr, nil
}

// --- job bookkeeping ---------------------------------------------------

// job is the executor-side lookup record: the task function workers
// resolve a frame's jobID against. Result routing lives in the
// scheduler, not here.
type job struct {
	id int64
	fn func(ec *ExecContext, task, attempt int) ([]byte, error)
	// tenant rides along for the executor-side profiling labels
	// (pprof tags per job/tenant when the flight recorder is on).
	tenant string
}

// JobSpec describes one stage submitted to the cluster.
type JobSpec struct {
	// Tenant names the scheduler fair-share account charged for this
	// stage's slot-time (empty: the default tenant). Long-lived multi-
	// tenant drivers set it per submitting client; see sched.TenantConfig.
	Tenant string
	// Tasks is the number of tasks in the stage.
	Tasks int
	// Placement maps task index -> executor index. Nil defers to Policy
	// (and, with Policy also nil, the scheduler's default round-robin
	// placement task % NumExecutors, which keeps cached partitions on
	// stable executors). A non-nil Placement is the SpawnRDD
	// static-scheduling path; such executor-targeted stages are never
	// speculated, since a duplicate elsewhere would act on the wrong
	// node's state.
	Placement []int
	// Policy places the stage's tasks when Placement is nil. Nil selects
	// the scheduler default (sched.RoundRobin). Cached RDDs pass a
	// cache-aware policy here; collective stages a topology-aware one.
	Policy sched.PlacementPolicy
	// Gang requests all-or-nothing slot acquisition: the stage launches
	// only once every task can start simultaneously. Collective stages
	// set it so a ring never spins up with members queued behind another
	// job; gang stages serialize per scheduler gang key and are never
	// speculated.
	Gang bool
	// Fn runs executor-side. Its []byte return crosses the transport
	// back to the driver (copied into the result frame, or sent in place
	// when built in ec.ResultBuf). The payload the driver-side waiter
	// receives is its own: a large one may be returned to the wire pool
	// with transport.PutBuf once decoded, and is otherwise left to the
	// garbage collector.
	Fn func(ec *ExecContext, task, attempt int) ([]byte, error)
	// StageCleanup marks this as a reduced-result stage (IMM): on any
	// task failure the whole stage is aborted, StageCleanup runs on
	// every executor, and the stage is resubmitted from scratch. When
	// nil, failed tasks are retried individually (plain RDD semantics,
	// which require independent tasks).
	StageCleanup func(ec *ExecContext) error
	// MaxAttempts, when positive, overrides the configured retry budget
	// for this stage (maxTaskAttempts, or maxStageAttempts with
	// StageCleanup set). Collective stages set it to 1: resubmitting one
	// ring member alone cannot succeed, and the caller wants the
	// classified failure promptly to decide on fallback.
	MaxAttempts int
	// WaitAll delays the stage's error return until every in-flight task
	// has reported, instead of aborting on the first terminal failure.
	// Collective stages set it so that no task of a failed stage is
	// still driving the comm ring when the caller starts recovery (its
	// peers classify within their step deadline, so the wait is
	// bounded). Stages with StageCleanup always behave this way.
	WaitAll bool
	// TraceParent, when valid, makes this stage's span a child of the
	// given span (e.g. the enclosing aggregate). With a tracer
	// configured but no parent, the stage roots its own trace.
	TraceParent trace.SpanContext
}

// ErrJobFailed wraps the terminal failure of a job after retries.
var ErrJobFailed = errors.New("rdd: job failed")

// ErrStageCleanup marks a reduced-result stage that gave up because its
// StageCleanup job itself failed — the one way such a stage fails with
// its state possibly still resident on executors.
var ErrStageCleanup = errors.New("rdd: stage cleanup failed")

// executorConn returns a task connection to executor i, rotating
// round-robin over taskConnStripes connections (dialed on first use).
// Striping matters on latency-shaped transports: each connection
// delivers one frame per network latency, so a single connection
// serializes concurrent jobs' launches while stripes let them overlap.
func (ctx *Context) executorConn(i int) (*lockedConn, error) {
	ctx.connMu.Lock()
	// The slot table can outgrow the boot size under elastic joins.
	for len(ctx.conns) <= i {
		ctx.conns = append(ctx.conns, nil)
		ctx.connRR = append(ctx.connRR, 0)
	}
	if ctx.conns[i] == nil {
		stripes := make([]*lockedConn, 0, taskConnStripes)
		for s := 0; s < taskConnStripes; s++ {
			c, err := ctx.net.Dial(taskAddr(ctx.conf.Name, i))
			if err != nil {
				for _, lc := range stripes {
					lc.c.Close()
				}
				ctx.connMu.Unlock()
				return nil, err
			}
			stripes = append(stripes, &lockedConn{c: c})
			go ctx.readResults(c)
		}
		ctx.conns[i] = stripes
	}
	stripes := ctx.conns[i]
	ctx.connRR[i]++
	lc := stripes[int(ctx.connRR[i])%len(stripes)]
	ctx.connMu.Unlock()
	return lc, nil
}

// closeExecutorConns severs the driver's task connections to a
// departed executor; a replacement adopting the slot dials fresh ones.
func (ctx *Context) closeExecutorConns(i int) {
	ctx.connMu.Lock()
	if i >= 0 && i < len(ctx.conns) {
		for _, lc := range ctx.conns[i] {
			if lc != nil {
				lc.c.Close()
			}
		}
		ctx.conns[i] = nil
	}
	ctx.connMu.Unlock()
}

// readResults routes result frames from one executor connection into
// the scheduler. Malformed frames and scheduler-side overflows are
// counted and marked in the event log, so a protocol bug shows up in
// telemetry instead of as a hang. A received frame belongs to the
// receiver (transport.Conn contract), so a payload travels on to the
// job's waiter as the frame itself; frames that carry none go straight
// back to the wire pool.
func (ctx *Context) readResults(c transport.Conn) {
	for {
		b, err := c.Recv()
		if err != nil {
			return
		}
		jobID, task, attempt, payload, taskErr, err := decodeResultFrame(b)
		if err != nil {
			ctx.RecordMarker(metrics.CounterResultMalformed, err.Error())
			continue
		}
		if payload == nil {
			transport.PutBuf(b)
		}
		if !ctx.sched.Deliver(jobID, task, attempt, payload, taskErr) {
			ctx.RecordMarker(metrics.CounterResultDropped,
				fmt.Sprintf("job %d task %d attempt %d", jobID, task, attempt))
		}
	}
}

// JobHandle is the caller's future for a submitted job. Wait and
// Executors may be called from any goroutine; the first call resolves
// the job (idempotently).
type JobHandle struct {
	once  sync.Once
	fetch func() ([][]byte, []int, error)
	out   [][]byte
	execs []int
	err   error
}

func (h *JobHandle) resolve() { h.out, h.execs, h.err = h.fetch() }

// Wait blocks until the job completes and returns the per-task
// payloads in task order.
func (h *JobHandle) Wait() ([][]byte, error) {
	h.once.Do(h.resolve)
	return h.out, h.err
}

// Executors reports, after the job succeeded, which executor produced
// each task's winning result. Under the default round-robin policy
// with no speculation this is task % NumExecutors; with cache-aware
// placement or a speculative win it is wherever the task actually ran
// — the executor whose block store holds any blocks the task wrote.
func (h *JobHandle) Executors() []int {
	h.once.Do(h.resolve)
	return h.execs
}

// RunJob executes spec synchronously and returns the per-task payloads
// in task order — a thin wrapper over SubmitJob for the common
// blocking callers.
func (ctx *Context) RunJob(spec JobSpec) ([][]byte, error) {
	h, err := ctx.SubmitJob(spec)
	if err != nil {
		return nil, err
	}
	out, err := h.Wait()
	return out, err
}

// SubmitJob validates spec and hands it to the stage scheduler,
// returning immediately: independent jobs overlap on disjoint core
// slots. Reduced-result stages (StageCleanup set) run their
// abort/clean/resubmit orchestration on a background goroutine.
func (ctx *Context) SubmitJob(spec JobSpec) (*JobHandle, error) {
	if spec.Tasks <= 0 {
		return nil, fmt.Errorf("rdd: JobSpec.Tasks must be positive, got %d", spec.Tasks)
	}
	if spec.Fn == nil {
		return nil, fmt.Errorf("rdd: JobSpec.Fn is nil")
	}
	policy := spec.Policy
	if spec.Placement != nil {
		if len(spec.Placement) != spec.Tasks {
			return nil, fmt.Errorf("rdd: len(Placement)=%d != Tasks=%d", len(spec.Placement), spec.Tasks)
		}
		for t, e := range spec.Placement {
			if e < 0 || e >= ctx.NumExecutors() {
				return nil, fmt.Errorf("rdd: task %d placed on invalid executor %d", t, e)
			}
		}
		// Liveness (a slot inside bounds may be dead) is validated by the
		// scheduler against its own live view, the single source of truth.
		policy = sched.Fixed(spec.Placement)
	}

	if spec.StageCleanup != nil {
		return ctx.submitWholeRetry(spec, policy)
	}
	return ctx.submitTaskRetry(spec, policy)
}

// launcherFor builds the scheduler's Launch hook: encode a task frame
// and push it down the executor's task connection. It runs on the
// scheduler's per-executor sender goroutines, so a slow or
// fault-delayed transport stalls only that executor's launches.
func (ctx *Context) launcherFor(id int64, tc trace.SpanContext) func(task, attempt, executor int) error {
	return func(task, attempt, executor int) error {
		lc, err := ctx.executorConn(executor)
		if err != nil {
			// An unreachable task channel is a down peer: classify it so
			// retry/fallback decisions see the same sentinel a severed ring
			// connection produces.
			return fmt.Errorf("rdd: dial executor %d: %v: %w", executor, err, comm.ErrPeerDown)
		}
		if err := lc.send(encodeTaskFrame(id, task, attempt, tc)); err != nil {
			return fmt.Errorf("rdd: send to executor %d: %v: %w", executor, err, comm.ErrPeerDown)
		}
		return nil
	}
}

// submitTaskRetry schedules a stage whose failed tasks retry
// individually (plain RDD semantics, which require independent tasks).
func (ctx *Context) submitTaskRetry(spec JobSpec, policy sched.PlacementPolicy) (*JobHandle, error) {
	maxAttempts := maxTaskAttempts
	if spec.MaxAttempts > 0 {
		maxAttempts = spec.MaxAttempts
	}
	id := ctx.newJobID()
	ctx.jobs.Store(id, &job{id: id, fn: spec.Fn, tenant: spec.Tenant})
	allocBefore := ctx.profileStageStart()

	stage := ctx.conf.Tracer.StartSpan("stage", spec.TraceParent)
	stage.SetInt("job", id)
	stage.SetInt("tasks", int64(spec.Tasks))
	tc := stage.Context()

	sh, err := ctx.sched.Submit(sched.StageSpec{
		JobID:       id,
		Tenant:      spec.Tenant,
		Tasks:       spec.Tasks,
		Policy:      policy,
		Gang:        spec.Gang,
		GangKey:     gangKeyCollective,
		MaxAttempts: maxAttempts,
		WaitAll:     spec.WaitAll,
		// Executor-targeted stages (explicit placement) and gang
		// collectives must not run duplicates elsewhere.
		NoSpeculation: spec.Placement != nil || spec.Gang,
		TraceParent:   tc,
		Launch:        ctx.launcherFor(id, tc),
	})
	if err != nil {
		ctx.jobs.Delete(id)
		stage.EndErr(err)
		return nil, err
	}
	ctx.jobStarted()
	go func() {
		<-sh.Done()
		ctx.jobFinished()
	}()
	return &JobHandle{fetch: func() ([][]byte, []int, error) {
		out, werr := sh.Wait()
		ctx.jobs.Delete(id)
		if werr != nil {
			werr = fmt.Errorf("%w: %w", ErrJobFailed, werr)
		}
		stage.EndErr(werr)
		ctx.profileStageEnd(id, spec.Tenant, allocBefore)
		return out, sh.Executors(), werr
	}}, nil
}

// profileStageStart samples cumulative allocation before a stage when
// the flight recorder is on; profileStageEnd records the per-stage
// CPU/heap delta into the driver ring tagged with job and tenant —
// the "per-stage profile" rows of a postmortem bundle.
func (ctx *Context) profileStageStart() uint64 {
	if ctx.conf.Obsv == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (ctx *Context) profileStageEnd(id int64, tenant string, allocBefore uint64) {
	obs := ctx.conf.Obsv
	if obs == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	obs.DriverRing().Profile("stage", tenant,
		int64(ms.HeapAlloc), int64(ms.TotalAlloc-allocBefore), runtime.NumGoroutine(), id)
}

// gangKeyCollective serializes every gang (collective) stage: each
// executor has one comm endpoint, and concurrent ring collectives on
// one endpoint are mutually destructive (epoch-stale frames), so at
// most one may be in flight cluster-wide.
const gangKeyCollective = "collective"

// submitWholeRetry schedules a reduced-result stage: abort on first
// failure, run StageCleanup on every executor, resubmit from scratch.
// The attempt loop runs on a goroutine so submission stays async.
func (ctx *Context) submitWholeRetry(spec JobSpec, policy sched.PlacementPolicy) (*JobHandle, error) {
	maxAttempts := maxStageAttempts
	if spec.MaxAttempts > 0 {
		maxAttempts = spec.MaxAttempts
	}
	type result struct {
		out   [][]byte
		execs []int
		err   error
	}
	// One stage span covers every whole-stage attempt: resubmissions are
	// the stage's recovery behaviour, not new stages.
	stage := ctx.conf.Tracer.StartSpan("stage", spec.TraceParent)
	stage.SetInt("tasks", int64(spec.Tasks))
	stage.SetAttr("kind", "reduced-result")
	tc := stage.Context()

	resCh := make(chan result, 1)
	ctx.jobStarted()
	go func() {
		defer ctx.jobFinished()
		var lastErr error
		for stageAttempt := 0; stageAttempt < maxAttempts; stageAttempt++ {
			id := ctx.newJobID()
			// Each resubmission is a fresh scheduler stage, so the wire-level
			// attempt is always 0; the Fn's attempt contract is the
			// whole-stage attempt number (attempt-dependent behaviour such
			// as "succeed on retry" keys off it), so rebind it here.
			att := stageAttempt
			ctx.jobs.Store(id, &job{id: id, tenant: spec.Tenant, fn: func(ec *ExecContext, task, _ int) ([]byte, error) {
				return spec.Fn(ec, task, att)
			}})
			// MaxAttempts 1 + WaitAll: any failure aborts the whole
			// attempt, and no task is still mutating shared state when
			// cleanup starts. Shared per-executor aggregators also rule
			// out speculation — a duplicate would double-merge.
			sh, err := ctx.sched.Submit(sched.StageSpec{
				JobID:         id,
				Tenant:        spec.Tenant,
				Tasks:         spec.Tasks,
				Policy:        policy,
				MaxAttempts:   1,
				WaitAll:       true,
				NoSpeculation: true,
				TraceParent:   tc,
				Launch:        ctx.launcherFor(id, tc),
			})
			if err != nil {
				ctx.jobs.Delete(id)
				resCh <- result{err: err}
				return
			}
			out, werr := sh.Wait()
			ctx.jobs.Delete(id)
			if werr == nil {
				stage.SetInt("attempts", int64(stageAttempt+1))
				resCh <- result{out: out, execs: sh.Executors()}
				return
			}
			lastErr = werr
			if _, err := ctx.RunOnLiveExecutors(spec.Tenant, tc, func(ec *ExecContext, _, _ int) ([]byte, error) {
				return nil, spec.StageCleanup(ec)
			}); err != nil {
				resCh <- result{err: fmt.Errorf("%w: %w", ErrStageCleanup, err)}
				return
			}
		}
		stage.SetInt("attempts", int64(maxAttempts))
		resCh <- result{err: fmt.Errorf("%w: reduced-result stage failed %d attempts, last: %w",
			ErrJobFailed, maxAttempts, lastErr)}
	}()
	return &JobHandle{fetch: func() ([][]byte, []int, error) {
		r := <-resCh
		stage.EndErr(r.err)
		return r.out, r.execs, r.err
	}}, nil
}

// RunOnLiveExecutors is the engine's one spelling of "one task per live
// executor": a placed job charged to the fair-share tenant and parented
// on parent's span (both may be zero). It returns the payloads dense,
// in ascending order of live executor ID.
func (ctx *Context) RunOnLiveExecutors(tenant string, parent trace.SpanContext, fn func(ec *ExecContext, task, attempt int) ([]byte, error)) ([][]byte, error) {
	out, _, err := ctx.runOnLive(tenant, parent, fn)
	return out, err
}

// runOnLive is RunOnLiveExecutors beside the placement (the live
// executor IDs, ascending) the payloads came from.
func (ctx *Context) runOnLive(tenant string, parent trace.SpanContext, fn func(ec *ExecContext, task, attempt int) ([]byte, error)) ([][]byte, []int, error) {
	placement := append([]int(nil), ctx.LiveExecutors()...)
	if len(placement) == 0 {
		return nil, nil, nil
	}
	out, err := ctx.RunJob(JobSpec{Tenant: tenant, Tasks: len(placement), Placement: placement, TraceParent: parent, Fn: fn})
	return out, placement, err
}

// RunOnAllExecutors runs fn once per live executor and returns the
// payloads indexed by executor ID over the full slot table — dead
// slots hold nil, so callers that address results by executor keep
// working across membership change.
func (ctx *Context) RunOnAllExecutors(fn func(ec *ExecContext, task, attempt int) ([]byte, error)) ([][]byte, error) {
	res := make([][]byte, ctx.NumExecutors())
	out, placement, err := ctx.runOnLive("", trace.SpanContext{}, fn)
	if err != nil {
		return nil, err
	}
	for i, e := range placement {
		if e < len(res) {
			res[e] = out[i]
		}
	}
	return res, nil
}
