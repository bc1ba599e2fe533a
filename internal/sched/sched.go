package sched

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/eventlog"
	"sparker/internal/metrics"
	"sparker/internal/obsv"
	"sparker/internal/trace"
)

// Config describes the cluster geometry and knobs of a Scheduler.
type Config struct {
	// NumExecutors and CoresPerExecutor define the slot grid: executor e
	// owns CoresPerExecutor concurrent task slots.
	NumExecutors     int
	CoresPerExecutor int
	// DefaultPolicy places stages that set no policy of their own
	// (default RoundRobin).
	DefaultPolicy PlacementPolicy
	// Speculation enables straggler mitigation: once a stage has enough
	// completed tasks to estimate its running duration quantile, any
	// in-flight task exceeding specMultiplier × that quantile gets one
	// duplicate attempt on a different executor; the first result wins
	// and the loser is dropped by attempt-number dedup. Stages with
	// NoSpeculation or Gang set are never speculated.
	Speculation bool
	// The detector's tuning is fixed at the defaults below; the fields
	// exist only so in-package tests can tighten it. Zero means default.
	//
	// specMultiplier is the straggler threshold as a multiple of the
	// stage's running duration quantile (1.5 — Spark's
	// spark.speculation.multiplier); specQuantile the reference quantile
	// (0.5, the running median); specInterval the check period (10ms);
	// specMinRuntime floors the threshold so sub-millisecond stages
	// never speculate on noise (20ms).
	specMultiplier float64
	specQuantile   float64
	specInterval   time.Duration
	specMinRuntime time.Duration
	// Metrics receives the scheduler's instruments (queue-depth gauge,
	// task/stage/wait histograms). Nil disables them.
	Metrics *metrics.Registry
	// Recorder receives the speculation and drop counters; EventLog the
	// matching marker events. Either may be nil.
	Recorder *metrics.Recorder
	EventLog *eventlog.Logger
	// Tracer emits one "sched.wait" span per stage that spends time
	// queued behind busy slots. Nil disables.
	Tracer *trace.Tracer
	// Obsv, when non-nil, receives the scheduler's markers in the
	// flight recorder (speculative launches are an anomaly trigger).
	Obsv *obsv.Observer
}

func (c *Config) fill() error {
	if c.NumExecutors < 1 {
		return fmt.Errorf("sched: NumExecutors must be >= 1, got %d", c.NumExecutors)
	}
	if c.CoresPerExecutor < 1 {
		return fmt.Errorf("sched: CoresPerExecutor must be >= 1, got %d", c.CoresPerExecutor)
	}
	if c.DefaultPolicy == nil {
		c.DefaultPolicy = RoundRobin()
	}
	if c.specMultiplier == 0 {
		c.specMultiplier = 1.5
	}
	if c.specQuantile == 0 {
		c.specQuantile = 0.5
	}
	if c.specInterval == 0 {
		c.specInterval = 10 * time.Millisecond
	}
	if c.specMinRuntime == 0 {
		c.specMinRuntime = 20 * time.Millisecond
	}
	return nil
}

// StageSpec describes one stage submitted to the scheduler.
type StageSpec struct {
	// JobID tags every launch and result of this stage; the caller owns
	// uniqueness (the rdd driver allocates them).
	JobID int64
	// Tasks is the stage's task count.
	Tasks int
	// Policy places the stage's tasks (nil: the scheduler default).
	Policy PlacementPolicy
	// Gang requests all-or-nothing admission: the stage launches only
	// when every task's slot is free simultaneously, so a collective
	// never starts with members queued behind an unrelated job. Gang
	// stages require MaxAttempts <= 1 and are never speculated.
	Gang bool
	// GangKey serializes gang stages: at most one running gang per
	// non-empty key. Collective stages share one comm endpoint per
	// executor, where concurrent rings are mutually destructive
	// (epoch-stale frames), so they all use the same key.
	GangKey string
	// MaxAttempts bounds attempts per task (including the first).
	// Non-positive means 1.
	MaxAttempts int
	// WaitAll delays the stage's error delivery until every in-flight
	// attempt has reported, so no task of a failed stage is still
	// driving shared state when the caller starts recovery.
	WaitAll bool
	// NoSpeculation pins every attempt of a task to one executor. The
	// rdd driver sets it for executor-targeted stages (explicit
	// placement, cleanup broadcasts) where a duplicate elsewhere would
	// act on the wrong node.
	NoSpeculation bool
	// TraceParent parents the stage's sched.wait span.
	TraceParent trace.SpanContext
	// Launch submits one task attempt to the given executor. It runs on
	// a per-executor sender goroutine — never on the scheduler loop — so
	// a slow transport cannot stall scheduling; a returned error becomes
	// a normal task failure for that attempt.
	Launch func(task, attempt, executor int) error
}

// ErrSchedulerClosed is returned for stages still queued or undelivered
// when the scheduler shuts down, and by Submit afterwards.
var ErrSchedulerClosed = errors.New("sched: scheduler closed")

// StageHandle is the caller's future for a submitted stage.
type StageHandle struct {
	done  chan struct{}
	out   [][]byte
	err   error
	execs []int
}

// Wait blocks until the stage completes and returns the per-task
// payloads in task order, or the stage's terminal error.
func (h *StageHandle) Wait() ([][]byte, error) {
	<-h.done
	return h.out, h.err
}

// Executors reports, after Wait, which executor produced each task's
// winning result — the placement record downstream block fetches need
// once speculation or cache-aware policies can move tasks off their
// round-robin homes. Entries for unfinished tasks are -1.
func (h *StageHandle) Executors() []int {
	<-h.done
	return h.execs
}

// Done returns a channel closed when the stage has completed.
func (h *StageHandle) Done() <-chan struct{} { return h.done }

// --- internal state ----------------------------------------------------

// pendItem is one queued task attempt.
type pendItem struct {
	task, att int
	exec      int // current target executor
	since     time.Time
}

// akey identifies one task attempt of one job.
type akey struct {
	job       int64
	task, att int
}

// runInfo is one launched, unreported attempt.
type runInfo struct {
	st    *stage
	exec  int
	start time.Time
}

// stage is the loop-owned state of one submitted stage.
type stage struct {
	spec  StageSpec
	h     *StageHandle
	view  StageView
	place []int // resolved base placement, task -> executor

	pending    []pendItem
	out        [][]byte
	done       []bool
	failures   []int // failed attempts so far, per task
	nextAtt    []int // next attempt number to assign, per task
	speculated []bool
	execOf     []int

	remaining int // tasks not yet succeeded
	completed int // tasks succeeded (for the speculation quorum)
	inflight  int // launched, unreported attempts
	finalErr  error
	doomed    bool // stop launching; finalErr set
	delivered bool

	durations *metrics.Histogram // per-stage attempt durations (ns)
	submitted time.Time
	waitSpan  *trace.ActiveSpan
}

// launchReq is handed to a per-executor sender goroutine.
type launchReq struct {
	fn        func(task, attempt, executor int) error
	job       int64
	task, att int
	exec      int
}

type resultEv struct {
	job       int64
	task, att int
	payload   []byte
	err       error
}

// Scheduler is the event-driven stage scheduler. One loop goroutine
// owns every piece of mutable state; Submit and Deliver communicate
// with it over channels only.
type Scheduler struct {
	conf    Config
	submits chan *stage
	results chan resultEv
	ops     chan func() // snapshot and membership closures, run on the loop
	quit    chan struct{}
	done    chan struct{}

	launchers []chan launchReq
	launchWG  sync.WaitGroup

	closeOnce sync.Once
	// closeMu orders Submit against Close: a submitter holding the read
	// side observes closed==false only while the loop is still draining
	// s.submits, so an accepted stage is never stranded in the buffer of
	// a dead scheduler.
	closeMu sync.RWMutex
	closed  bool

	// Loop-owned (no locks: touched only by run()).
	free     []int  // free slots per executor
	dead     []bool // slots out of service (evicted / not yet joined)
	live     []int  // ascending live executor IDs (derived from dead)
	queue    []*stage
	stages   map[int64]*stage
	inflight map[akey]runInfo

	// liveView is the off-loop snapshot of the slot table; Submit reads
	// it to resolve placement without touching loop state.
	liveView atomic.Pointer[liveSnap]

	gaugeQueue *metrics.Gauge
	histTask   *metrics.Histogram
	histStage  *metrics.Histogram
	histWait   *metrics.Histogram
}

// New starts a scheduler for the given cluster geometry.
func New(conf Config) (*Scheduler, error) {
	if err := conf.fill(); err != nil {
		return nil, err
	}
	totalSlots := conf.NumExecutors * conf.CoresPerExecutor
	s := &Scheduler{
		conf: conf,
		// Every launched attempt holds a slot until its result is
		// consumed, so at most totalSlots results are outstanding; the
		// extra headroom absorbs transport-duplicated frames and results
		// of already-retired stages without ever blocking a reader.
		results:    make(chan resultEv, totalSlots*2+16),
		submits:    make(chan *stage, 16),
		ops:        make(chan func(), 16),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		free:       make([]int, conf.NumExecutors),
		stages:     map[int64]*stage{},
		inflight:   map[akey]runInfo{},
		gaugeQueue: conf.Metrics.Gauge(metrics.GaugeSchedQueue),
		histTask:   conf.Metrics.Histogram(metrics.HistSchedTaskNS),
		histStage:  conf.Metrics.Histogram(metrics.HistSchedStageNS),
		histWait:   conf.Metrics.Histogram(metrics.HistSchedWaitNS),
	}
	for e := range s.free {
		s.free[e] = conf.CoresPerExecutor
	}
	s.dead = make([]bool, conf.NumExecutors)
	s.publishLive()
	s.launchers = make([]chan launchReq, conf.NumExecutors)
	for e := range s.launchers {
		// A launch is only issued while holding one of the executor's
		// slots, so CoresPerExecutor outstanding requests is the cap and
		// the loop's send below never blocks.
		ch := make(chan launchReq, conf.CoresPerExecutor)
		s.launchers[e] = ch
		s.launchWG.Add(1)
		go s.launcher(ch)
	}
	go s.run()
	return s, nil
}

// launcher drains one executor's launch requests off the loop thread.
// A failed launch is fed back as a synthetic task failure, which also
// honors WaitAll: the stage drains like any other failed attempt.
func (s *Scheduler) launcher(ch chan launchReq) {
	defer s.launchWG.Done()
	for req := range ch {
		err := req.fn(req.task, req.att, req.exec)
		if err == nil {
			continue
		}
		ev := resultEv{job: req.job, task: req.task, att: req.att,
			err: fmt.Errorf("sched: launching task %d attempt %d on executor %d: %w",
				req.task, req.att, req.exec, err)}
		select {
		case s.results <- ev:
		case <-s.quit:
		}
	}
}

// Submit validates and enqueues a stage, returning its handle. The
// stage begins launching as soon as slots (for Gang: all slots) allow.
func (s *Scheduler) Submit(spec StageSpec) (*StageHandle, error) {
	if spec.Tasks <= 0 {
		return nil, fmt.Errorf("sched: StageSpec.Tasks must be positive, got %d", spec.Tasks)
	}
	if spec.Launch == nil {
		return nil, fmt.Errorf("sched: StageSpec.Launch is nil")
	}
	if spec.Gang && spec.MaxAttempts > 1 {
		return nil, fmt.Errorf("sched: gang stages require MaxAttempts <= 1, got %d", spec.MaxAttempts)
	}
	if spec.MaxAttempts <= 0 {
		spec.MaxAttempts = 1
	}
	pol := spec.Policy
	if pol == nil {
		pol = s.conf.DefaultPolicy
	}
	snap := s.liveView.Load()
	view := StageView{Tasks: spec.Tasks, NumExecutors: snap.slots, Alive: snap.alive}
	place := make([]int, spec.Tasks)
	need := make([]int, snap.slots)
	for t := range place {
		e := pol.Place(view, t)
		if e < 0 {
			return nil, fmt.Errorf("sched: policy %s placed task %d on invalid executor %d",
				pol.Name(), t, e)
		}
		if !view.isLive(e) {
			// The caller resolved placement against a membership view
			// this scheduler does not share — stale (a dead slot), or
			// installed a moment before its joiner is added here (a slot
			// past the table); surface it as a lost-executor failure so
			// collective callers re-plan against the current epoch.
			return nil, fmt.Errorf("sched: policy %s placed task %d on executor %d, which is not live here: %w",
				pol.Name(), t, e, ErrExecutorLost)
		}
		place[t] = e
		need[e]++
	}
	if spec.Gang {
		for e, n := range need {
			if n > s.conf.CoresPerExecutor {
				return nil, fmt.Errorf("sched: gang stage needs %d slots on executor %d, only %d cores",
					n, e, s.conf.CoresPerExecutor)
			}
		}
	}

	now := time.Now()
	st := &stage{
		spec:       spec,
		h:          &StageHandle{done: make(chan struct{})},
		view:       view,
		place:      place,
		out:        make([][]byte, spec.Tasks),
		done:       make([]bool, spec.Tasks),
		failures:   make([]int, spec.Tasks),
		nextAtt:    make([]int, spec.Tasks),
		speculated: make([]bool, spec.Tasks),
		execOf:     make([]int, spec.Tasks),
		remaining:  spec.Tasks,
		durations:  metrics.NewHistogram(),
		submitted:  now,
	}
	for t := 0; t < spec.Tasks; t++ {
		st.execOf[t] = -1
		st.nextAtt[t] = 1
		st.pending = append(st.pending, pendItem{task: t, att: 0, exec: place[t], since: now})
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, ErrSchedulerClosed
	}
	// With the read lock held and closed unset, quit cannot have been
	// closed yet, so the loop is alive and this send always drains.
	s.submits <- st
	return st.h, nil
}

// Deliver routes one task result into the scheduler. It never blocks:
// a false return means the event channel was full and the result was
// dropped (the caller counts these — with the channel sized for every
// slot plus duplicates, a drop indicates a protocol bug, not load).
func (s *Scheduler) Deliver(jobID int64, task, attempt int, payload []byte, err error) bool {
	select {
	case s.results <- resultEv{job: jobID, task: task, att: attempt, payload: payload, err: err}:
		return true
	case <-s.done:
		return false
	default:
		return false
	}
}

// onLoop runs f on the scheduler loop (where all stage and slot state
// lives) and waits for it to finish.
func (s *Scheduler) onLoop(f func()) error {
	done := make(chan struct{})
	wrapped := func() { f(); close(done) }
	select {
	case s.ops <- wrapped:
	case <-s.done:
		return ErrSchedulerClosed
	}
	select {
	case <-done:
		return nil
	case <-s.done:
		// Accepted but the loop quit before executing it.
		return ErrSchedulerClosed
	}
}

// Close shuts the scheduler down: queued and undelivered stages fail
// with ErrSchedulerClosed. Idempotent.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		s.closeMu.Unlock()
		close(s.quit)
	})
	<-s.done
}

// marker bumps a counter and emits a history-log marker, mirroring the
// rdd context's RecordMarker (both sinks optional).
func (s *Scheduler) marker(name, detail string) {
	if s.conf.Recorder != nil {
		s.conf.Recorder.Inc(name)
	}
	s.conf.EventLog.Marker(name, detail)
	// Safe from the loop: a triggered dump is queued to the observer's
	// own goroutine, never performed inline.
	s.conf.Obsv.Marker(name, detail)
}

// run is the scheduler loop: the only goroutine touching stage state.
func (s *Scheduler) run() {
	defer close(s.done)
	defer func() {
		for _, ch := range s.launchers {
			close(ch)
		}
		s.launchWG.Wait()
		// Fail whatever never completed: known stages plus submissions
		// still buffered in the channel. (Submit and Close must not race;
		// the drain covers stages accepted just before shutdown.)
		for {
			select {
			case st := <-s.submits:
				s.stages[st.spec.JobID] = st
			default:
				for _, st := range s.stages {
					s.deliver(st, nil, ErrSchedulerClosed)
				}
				return
			}
		}
	}()
	var tick <-chan time.Time
	if s.conf.Speculation {
		t := time.NewTicker(s.conf.specInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.quit:
			return
		case st := <-s.submits:
			s.stages[st.spec.JobID] = st
			s.queue = append(s.queue, st)
			// The submitter resolved placement against a liveView snapshot
			// that a racing RemoveExecutor may have invalidated before this
			// stage reached the loop; reconcile so no queued item targets a
			// dead slot (it would never dispatch).
			s.reconcileStage(st)
			s.maybeRetire(st)
			s.trySchedule()
		case ev := <-s.results:
			s.handleResult(ev)
			s.trySchedule()
		case f := <-s.ops:
			f()
			s.trySchedule()
		case <-tick:
			s.speculate()
		}
	}
}

// queueDepth is the total pending task count across queued stages.
func (s *Scheduler) queueDepth() int {
	n := 0
	for _, st := range s.queue {
		n += len(st.pending)
	}
	return n
}

// trySchedule dispatches pending attempts onto free slots, walking the
// queue FIFO-greedy: each stage, oldest first, launches every pending
// attempt whose executor has a free slot. A gang stage that cannot
// fully launch reserves the slots it could take, so younger stages
// cannot starve it indefinitely; non-gang stages are work-conserving
// on whatever the reservations leave over.
func (s *Scheduler) trySchedule() {
	avail := make([]int, len(s.free))
	copy(avail, s.free)
	for _, st := range s.queue {
		if st.doomed {
			st.clearPending()
			continue
		}
		if st.spec.Gang {
			s.tryGang(st, avail)
			continue
		}
		kept := st.pending[:0]
		for _, p := range st.pending {
			if avail[p.exec] > 0 {
				avail[p.exec]--
				s.launch(st, p)
			} else {
				kept = append(kept, p)
			}
		}
		st.pending = kept
	}
	// Close the wait span of any stage that just fully dispatched, open
	// one for stages this pass left queued.
	for _, st := range s.queue {
		if len(st.pending) == 0 && st.waitSpan != nil {
			st.waitSpan.End()
			st.waitSpan = nil
		}
	}
	s.compactQueue()
	s.gaugeQueue.Set(int64(s.queueDepth()))
	for _, st := range s.queue {
		s.noteWaiting(st)
	}
}

// tryGang launches a gang stage only when every pending task has a
// free slot simultaneously; otherwise it reserves what it could take.
func (s *Scheduler) tryGang(st *stage, avail []int) {
	if len(st.pending) == 0 {
		return
	}
	if st.spec.GangKey != "" {
		// At most one running gang per key: a sibling with in-flight
		// work blocks us (shared comm endpoints, where concurrent rings
		// corrupt each other), but takes no slot reservation — we wait on
		// its completion, not on slots. Gang launch is atomic, so a
		// sibling is either fully in flight or not launched at all.
		for _, other := range s.stages {
			if other != st && other.spec.Gang && other.spec.GangKey == st.spec.GangKey && other.inflight > 0 {
				return
			}
		}
	}
	need := make(map[int]int, len(s.free))
	for _, p := range st.pending {
		need[p.exec]++
	}
	for e, n := range need {
		if n > avail[e] {
			// Partial fit: reserve our share so later stages in the walk
			// cannot take it, then wait for the rest.
			for re, rn := range need {
				if rn < avail[re] {
					avail[re] -= rn
				} else {
					avail[re] = 0
				}
			}
			return
		}
	}
	for _, p := range st.pending {
		avail[p.exec]--
		s.launch(st, p)
	}
	st.pending = st.pending[:0]
}

// launch takes a slot and hands the attempt to the executor's sender.
func (s *Scheduler) launch(st *stage, p pendItem) {
	s.free[p.exec]--
	now := time.Now()
	s.inflight[akey{job: st.spec.JobID, task: p.task, att: p.att}] =
		runInfo{st: st, exec: p.exec, start: now}
	st.inflight++
	s.histWait.Observe(now.Sub(p.since).Nanoseconds())
	s.launchers[p.exec] <- launchReq{
		fn: st.spec.Launch, job: st.spec.JobID, task: p.task, att: p.att, exec: p.exec,
	}
}

// noteWaiting opens the stage's sched.wait span the first time a
// scheduling pass leaves it with queued work.
func (s *Scheduler) noteWaiting(st *stage) {
	if s.conf.Tracer == nil || st.waitSpan != nil || len(st.pending) == 0 {
		return
	}
	sp := s.conf.Tracer.StartSpan("sched.wait", st.spec.TraceParent)
	sp.SetInt("job", st.spec.JobID)
	sp.SetInt("queued", int64(len(st.pending)))
	if st.spec.Gang {
		sp.SetAttr("gang", "true")
	}
	st.waitSpan = sp
}

// compactQueue drops fully-dispatched or finished stages from the
// FIFO (they re-enter via resubmission items only).
func (s *Scheduler) compactQueue() {
	kept := s.queue[:0]
	for _, st := range s.queue {
		if len(st.pending) > 0 {
			kept = append(kept, st)
		}
	}
	s.queue = kept
}

// enqueue re-adds a stage with fresh pending work to the FIFO.
func (s *Scheduler) enqueue(st *stage) {
	for _, q := range s.queue {
		if q == st {
			return
		}
	}
	s.queue = append(s.queue, st)
}

// handleResult processes one attempt outcome: frees the slot, applies
// dedup, and advances the stage toward delivery or retry.
func (s *Scheduler) handleResult(ev resultEv) {
	key := akey{job: ev.job, task: ev.task, att: ev.att}
	ri, ok := s.inflight[key]
	if !ok {
		// Transport-duplicated frame or a result for a stage the
		// scheduler never launched: nothing holds a slot for it.
		return
	}
	delete(s.inflight, key)
	s.free[ri.exec]++
	st := ri.st
	st.inflight--
	dur := time.Since(ri.start)

	defer s.maybeRetire(st)

	if ev.task < 0 || ev.task >= st.spec.Tasks || st.done[ev.task] {
		// Late loser of a speculative race (or a bogus index): the slot
		// release above is all it was owed.
		if ev.err == nil && ev.task >= 0 && ev.task < st.spec.Tasks {
			s.marker(metrics.CounterSpecLost,
				fmt.Sprintf("job %d task %d attempt %d finished after winner", ev.job, ev.task, ev.att))
		}
		return
	}
	if ev.err == nil {
		st.out[ev.task] = ev.payload
		st.done[ev.task] = true
		st.execOf[ev.task] = ri.exec
		st.remaining--
		st.completed++
		st.durations.Observe(dur.Nanoseconds())
		s.histTask.Observe(dur.Nanoseconds())
		if ev.att > 0 && st.speculated[ev.task] {
			// Any non-zero attempt of a speculated task that comes home
			// first is either the duplicate winning or the original losing
			// a retry race; only the duplicate path marks speculated with
			// att assigned past the failure budget, so this is the win.
			s.marker(metrics.CounterSpecWon,
				fmt.Sprintf("job %d task %d: speculative attempt %d on executor %d won in %v",
					ev.job, ev.task, ev.att, ri.exec, dur))
		}
		if st.remaining == 0 && !st.delivered {
			s.deliver(st, st.out, nil)
		}
		return
	}

	// Failure path.
	st.failures[ev.task]++
	if st.failures[ev.task] >= st.spec.MaxAttempts {
		if st.finalErr == nil {
			st.finalErr = fmt.Errorf("task %d failed %d times, last: %w",
				ev.task, st.failures[ev.task], ev.err)
		}
		st.doomed = true
		st.clearPending()
		if !st.spec.WaitAll && !st.delivered {
			s.deliver(st, nil, st.finalErr)
		}
		return
	}
	if st.doomed {
		return // stage already failing; no point resubmitting
	}
	// Retry on the task's base placement (retries must observe the same
	// executor-local state the first attempt did) — unless membership
	// change killed that executor, in which case the retry follows the
	// live owner, or dooms pinned work.
	exec := s.retryExec(st, ev.task)
	if exec < 0 {
		st.doomed = true
		st.finalErr = fmt.Errorf("task %d retry has no live executor: %w", ev.task, ErrExecutorLost)
		st.clearPending()
		if !st.spec.WaitAll && !st.delivered {
			s.deliver(st, nil, st.finalErr)
		}
		return
	}
	att := st.nextAtt[ev.task]
	st.nextAtt[ev.task]++
	st.pending = append(st.pending, pendItem{
		task: ev.task, att: att, exec: exec, since: time.Now(),
	})
	s.enqueue(st)
}

// deliver resolves the stage's handle exactly once.
func (s *Scheduler) deliver(st *stage, out [][]byte, err error) {
	if st.delivered {
		return
	}
	st.delivered = true
	if st.waitSpan != nil {
		st.waitSpan.EndErr(err)
		st.waitSpan = nil
	}
	s.histStage.Observe(time.Since(st.submitted).Nanoseconds())
	st.h.out = out
	st.h.err = err
	st.h.execs = st.execOf
	close(st.h.done)
}

// maybeRetire finishes a stage's bookkeeping: deliver a WaitAll error
// once drained, and forget the stage when nothing is left in flight.
func (s *Scheduler) maybeRetire(st *stage) {
	if st.doomed && st.inflight == 0 && !st.delivered {
		s.deliver(st, nil, st.finalErr)
	}
	if st.delivered && st.inflight == 0 && len(st.pending) == 0 {
		delete(s.stages, st.spec.JobID)
	}
}

// clearPending drops queued work of a doomed stage.
func (st *stage) clearPending() { st.pending = st.pending[:0] }

// speculate is the straggler scan: for every eligible stage with a
// usable duration estimate, in-flight original attempts running past
// the threshold get one duplicate on a different executor, and queued
// tasks stuck behind a busy executor migrate to a free one.
func (s *Scheduler) speculate() {
	launched := false
	for key, ri := range s.inflight {
		st := ri.st
		if !s.eligible(st) {
			continue
		}
		thr, ok := s.threshold(st)
		if !ok {
			continue
		}
		t := key.task
		if st.done[t] || st.speculated[t] || time.Since(ri.start) < thr {
			continue
		}
		e := s.freeExecutorNot(ri.exec)
		if e < 0 {
			continue
		}
		st.speculated[t] = true
		// Attempt IDs continue past the retry budget so a duplicate can
		// never collide with a future retry's number.
		att := st.nextAtt[t]
		st.nextAtt[t]++
		s.marker(metrics.CounterSpecLaunched,
			fmt.Sprintf("job %d task %d attempt %d running %v > %v on executor %d; duplicate attempt %d on executor %d",
				st.spec.JobID, t, key.att, time.Since(ri.start).Round(time.Millisecond), thr.Round(time.Millisecond), ri.exec, att, e))
		s.launch(st, pendItem{task: t, att: att, exec: e, since: time.Now()})
		launched = true
	}
	// Pending migration: a queued task of an eligible stage whose target
	// executor stayed busy past the threshold is re-placed onto an
	// executor with free slots, then dispatched by the normal pass.
	migrated := false
	for _, st := range s.queue {
		if !s.eligible(st) {
			continue
		}
		thr, ok := s.threshold(st)
		if !ok {
			continue
		}
		for i := range st.pending {
			p := &st.pending[i]
			if s.free[p.exec] > 0 || time.Since(p.since) < thr {
				continue
			}
			if e := s.freeExecutorNot(p.exec); e >= 0 {
				s.marker(metrics.CounterSpecMigrated,
					fmt.Sprintf("job %d task %d queued %v behind executor %d; migrated to %d",
						st.spec.JobID, p.task, time.Since(p.since).Round(time.Millisecond), p.exec, e))
				p.exec = e
				migrated = true
			}
		}
	}
	if launched || migrated {
		s.trySchedule()
	}
}

// eligible reports whether a stage may speculate at all.
func (s *Scheduler) eligible(st *stage) bool {
	return !st.spec.NoSpeculation && !st.spec.Gang && !st.doomed && st.remaining > 0
}

// threshold computes the stage's straggler cutoff from its running
// duration quantile. It needs a completion quorum — enough finished
// tasks that the quantile means something.
func (s *Scheduler) threshold(st *stage) (time.Duration, bool) {
	quorum := int(math.Ceil(s.conf.specQuantile * float64(st.spec.Tasks)))
	if quorum < 1 {
		quorum = 1
	}
	if st.completed < quorum {
		return 0, false
	}
	med := st.durations.Quantile(s.conf.specQuantile)
	thr := time.Duration(s.conf.specMultiplier * float64(med))
	if thr < s.conf.specMinRuntime {
		thr = s.conf.specMinRuntime
	}
	return thr, true
}

// freeExecutorNot returns a live executor with a free slot other than
// not, preferring the most idle one; -1 when none qualifies.
func (s *Scheduler) freeExecutorNot(not int) int {
	best, bestFree := -1, 0
	for e, f := range s.free {
		if e != not && !s.dead[e] && f > bestFree {
			best, bestFree = e, f
		}
	}
	return best
}
