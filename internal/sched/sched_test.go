package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sparker/internal/metrics"
)

// recorder collects launch invocations from the scheduler's sender
// goroutines so tests can assert on placement, attempt numbers and
// ordering without a real transport.
type recorder struct {
	mu       sync.Mutex
	launches []launchRec
}

type launchRec struct {
	job             int64
	task, att, exec int
}

// hook returns a Launch function that records and optionally reacts.
// react runs on the sender goroutine after recording; nil means "record
// only" (the test delivers results by hand).
func (r *recorder) hook(job int64, react func(task, att, exec int) error) func(int, int, int) error {
	return func(task, att, exec int) error {
		r.mu.Lock()
		r.launches = append(r.launches, launchRec{job: job, task: task, att: att, exec: exec})
		r.mu.Unlock()
		if react != nil {
			return react(task, att, exec)
		}
		return nil
	}
}

func (r *recorder) snapshot() []launchRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]launchRec, len(r.launches))
	copy(out, r.launches)
	return out
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.launches)
}

// waitCount polls until the recorder has seen at least n launches.
func (r *recorder) waitCount(t *testing.T, n int) []launchRec {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.count() >= n {
			return r.snapshot()
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d launches, saw %d: %v", n, r.count(), r.snapshot())
	return nil
}

func newTestSched(t *testing.T, conf Config) *Scheduler {
	t.Helper()
	s, err := New(conf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestDefaultPolicyIsRoundRobin(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 3, CoresPerExecutor: 2})
	rec := &recorder{}
	h, err := s.Submit(StageSpec{
		JobID: 1,
		Tasks: 6,
		Launch: rec.hook(1, func(task, att, exec int) error {
			s.Deliver(1, task, att, []byte{byte(task)}, nil)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for task, p := range out {
		if len(p) != 1 || p[0] != byte(task) {
			t.Fatalf("task %d payload %v", task, p)
		}
	}
	execs := h.Executors()
	for task, e := range execs {
		if e != task%3 {
			t.Fatalf("task %d ran on executor %d, want %d", task, e, task%3)
		}
	}
}

func TestSlotInvariant(t *testing.T) {
	const execs, cores, tasks = 2, 2, 16
	s := newTestSched(t, Config{NumExecutors: execs, CoresPerExecutor: cores})
	var mu sync.Mutex
	launched := make([]int, execs)  // launches issued per executor
	delivered := make([]int, execs) // results we handed back per executor
	h, err := s.Submit(StageSpec{
		JobID: 7,
		Tasks: tasks,
		Launch: func(task, att, exec int) error {
			// A new launch implies the loop freed a slot, and it only frees
			// slots after consuming a result we delivered, so
			// launched - delivered bounds the executor's true occupancy.
			mu.Lock()
			launched[exec]++
			if occ := launched[exec] - delivered[exec]; occ > cores {
				mu.Unlock()
				return fmt.Errorf("executor %d occupancy %d > %d cores", exec, occ, cores)
			}
			mu.Unlock()
			go func() {
				time.Sleep(time.Millisecond)
				mu.Lock()
				delivered[exec]++
				mu.Unlock()
				s.Deliver(7, task, att, nil, nil)
			}()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskRetryUsesBasePlacement(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 2, CoresPerExecutor: 1})
	rec := &recorder{}
	h, err := s.Submit(StageSpec{
		JobID:       3,
		Tasks:       2,
		MaxAttempts: 3,
		Launch: rec.hook(3, func(task, att, exec int) error {
			if task == 1 && att < 2 {
				s.Deliver(3, task, att, nil, errors.New("transient"))
			} else {
				s.Deliver(3, task, att, []byte{byte(att)}, nil)
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out[1][0] != 2 {
		t.Fatalf("task 1 succeeded on attempt %d, want 2", out[1][0])
	}
	for _, l := range rec.snapshot() {
		if l.task == 1 && l.exec != 1 {
			t.Fatalf("retry of task 1 launched on executor %d, want base placement 1", l.exec)
		}
	}
}

func TestTaskFailureExhaustsAttempts(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 1, CoresPerExecutor: 1})
	rec := &recorder{}
	boom := errors.New("boom")
	h, err := s.Submit(StageSpec{
		JobID:       4,
		Tasks:       1,
		MaxAttempts: 3,
		Launch: rec.hook(4, func(task, att, exec int) error {
			s.Deliver(4, task, att, nil, boom)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := h.Wait()
	if !errors.Is(werr, boom) {
		t.Fatalf("terminal error %v does not wrap the task error", werr)
	}
	if n := rec.count(); n != 3 {
		t.Fatalf("%d attempts launched, want 3", n)
	}
	// Slots must be returned after the failure: a follow-up stage runs.
	h2, err := s.Submit(StageSpec{
		JobID: 5,
		Tasks: 1,
		Launch: rec.hook(5, func(task, att, exec int) error {
			s.Deliver(5, task, att, []byte("ok"), nil)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyValidationAtSubmit(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 2, CoresPerExecutor: 1})
	_, err := s.Submit(StageSpec{
		JobID:  6,
		Tasks:  3,
		Policy: Fixed([]int{0, 1}), // task 2 out of range -> -1
		Launch: func(int, int, int) error { return nil },
	})
	if err == nil {
		t.Fatal("out-of-range placement must be rejected at submit")
	}
	_, err = s.Submit(StageSpec{
		JobID:  6,
		Tasks:  1,
		Policy: Fixed([]int{5}),
		Launch: func(int, int, int) error { return nil },
	})
	// A slot past the table is a view ahead of this scheduler (a joiner
	// not added yet): classified, so collective callers re-plan.
	if !errors.Is(err, ErrExecutorLost) {
		t.Fatalf("placement past the slot table: %v, want ErrExecutorLost", err)
	}
}

func TestGangRejectsOversizedStage(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 2, CoresPerExecutor: 1})
	_, err := s.Submit(StageSpec{
		JobID:  8,
		Tasks:  3, // two tasks on executor 0 under round-robin, one core
		Gang:   true,
		Launch: func(int, int, int) error { return nil },
	})
	if err == nil {
		t.Fatal("gang stage larger than the slot grid must be rejected")
	}
}

// TestGangAllOrNothing holds one executor busy and checks that a gang
// stage launches nothing at all — not even tasks whose executors are
// free — until every slot is available at once.
func TestGangAllOrNothing(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 2, CoresPerExecutor: 1})
	rec := &recorder{}
	// Occupy executor 0; the result is delivered by hand later.
	hold, err := s.Submit(StageSpec{
		JobID:  10,
		Tasks:  1,
		Policy: Fixed([]int{0}),
		Launch: rec.hook(10, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitCount(t, 1)

	gang, err := s.Submit(StageSpec{
		JobID: 11,
		Tasks: 2,
		Gang:  true,
		Launch: rec.hook(11, func(task, att, exec int) error {
			s.Deliver(11, task, att, nil, nil)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	for _, l := range rec.snapshot() {
		if l.job == 11 {
			t.Fatalf("gang task launched while executor 0 was busy: %+v", l)
		}
	}
	s.Deliver(10, 0, 0, nil, nil)
	if _, err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := gang.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestGangKeySerialization submits two gang stages sharing a key on a
// grid with room for both, and checks the second waits for the first to
// fully drain.
func TestGangKeySerialization(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 2, CoresPerExecutor: 2})
	rec := &recorder{}
	g1, err := s.Submit(StageSpec{
		JobID:   20,
		Tasks:   2,
		Gang:    true,
		GangKey: "ring",
		Launch:  rec.hook(20, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitCount(t, 2)
	g2, err := s.Submit(StageSpec{
		JobID:   21,
		Tasks:   2,
		Gang:    true,
		GangKey: "ring",
		Launch: rec.hook(21, func(task, att, exec int) error {
			s.Deliver(21, task, att, nil, nil)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	for _, l := range rec.snapshot() {
		if l.job == 21 {
			t.Fatalf("second gang launched while first held the key: %+v", l)
		}
	}
	s.Deliver(20, 0, 0, nil, nil)
	s.Deliver(20, 1, 0, nil, nil)
	if _, err := g1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestGangReservation checks a queued gang's slots cannot be stolen by
// a younger stage: the gang reserves its share while blocked.
func TestGangReservation(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 2, CoresPerExecutor: 1})
	rec := &recorder{}
	hold, err := s.Submit(StageSpec{
		JobID:  30,
		Tasks:  1,
		Policy: Fixed([]int{0}),
		Launch: rec.hook(30, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitCount(t, 1)
	gang, err := s.Submit(StageSpec{
		JobID: 31,
		Tasks: 2,
		Gang:  true,
		Launch: rec.hook(31, func(task, att, exec int) error {
			s.Deliver(31, task, att, nil, nil)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Younger non-gang stage wants executor 1 — reserved for the gang.
	late, err := s.Submit(StageSpec{
		JobID:  32,
		Tasks:  1,
		Policy: Fixed([]int{1}),
		Launch: rec.hook(32, func(task, att, exec int) error {
			s.Deliver(32, task, att, nil, nil)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	for _, l := range rec.snapshot() {
		if l.job == 32 {
			t.Fatalf("younger stage stole the gang's reserved slot: %+v", l)
		}
	}
	s.Deliver(30, 0, 0, nil, nil)
	if _, err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := gang.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := late.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncStagesOverlap submits two stages pinned to different
// executors and checks both are in flight simultaneously — the
// scheduler no longer serializes independent stages.
func TestAsyncStagesOverlap(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 2, CoresPerExecutor: 1})
	rec := &recorder{}
	a, err := s.Submit(StageSpec{
		JobID: 40, Tasks: 1, Policy: Fixed([]int{0}), Launch: rec.hook(40, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(StageSpec{
		JobID: 41, Tasks: 1, Policy: Fixed([]int{1}), Launch: rec.hook(41, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both launch with neither completed.
	rec.waitCount(t, 2)
	s.Deliver(41, 0, 0, []byte("b"), nil)
	s.Deliver(40, 0, 0, []byte("a"), nil)
	if out, err := a.Wait(); err != nil || string(out[0]) != "a" {
		t.Fatalf("stage a: %v %q", err, out)
	}
	if out, err := b.Wait(); err != nil || string(out[0]) != "b" {
		t.Fatalf("stage b: %v %q", err, out)
	}
}

// TestWaitAllDrainsBeforeError checks the satellite fix: a stage whose
// launch fails must not deliver its error while sibling attempts are
// still in flight.
func TestWaitAllDrainsBeforeError(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 2, CoresPerExecutor: 1})
	rec := &recorder{}
	h, err := s.Submit(StageSpec{
		JobID:   50,
		Tasks:   2,
		WaitAll: true,
		Launch: rec.hook(50, func(task, att, exec int) error {
			if task == 1 {
				return errors.New("submit failed") // synthetic task failure
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitCount(t, 2)
	select {
	case <-h.Done():
		t.Fatal("stage delivered its error while task 0 was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	s.Deliver(50, 0, 0, []byte("late"), nil)
	if _, werr := h.Wait(); werr == nil {
		t.Fatal("stage must fail once drained")
	}
}

func TestDuplicateResultIgnored(t *testing.T) {
	s := newTestSched(t, Config{NumExecutors: 1, CoresPerExecutor: 1})
	rec := &recorder{}
	h, err := s.Submit(StageSpec{JobID: 60, Tasks: 1, Launch: rec.hook(60, nil)})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitCount(t, 1)
	s.Deliver(60, 0, 0, []byte("first"), nil)
	s.Deliver(60, 0, 0, []byte("dup"), nil) // transport duplicate
	out, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(out[0]) != "first" {
		t.Fatalf("duplicate overwrote the first result: %q", out[0])
	}
	// The duplicate must not have freed a phantom slot: a 1-slot grid
	// still runs exactly one task at a time.
	h2, err := s.Submit(StageSpec{
		JobID: 61, Tasks: 1,
		Launch: rec.hook(61, func(task, att, exec int) error {
			s.Deliver(61, task, att, nil, nil)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s, err := New(Config{NumExecutors: 1, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, err = s.Submit(StageSpec{JobID: 70, Tasks: 1, Launch: func(int, int, int) error { return nil }})
	if !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("submit after close: %v, want ErrSchedulerClosed", err)
	}
	s.Close() // idempotent
}

func TestCloseFailsPendingStages(t *testing.T) {
	s, err := New(Config{NumExecutors: 1, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	running, err := s.Submit(StageSpec{JobID: 80, Tasks: 1, Launch: rec.hook(80, nil)})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitCount(t, 1)
	queued, err := s.Submit(StageSpec{JobID: 81, Tasks: 1, Launch: rec.hook(81, nil)})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, werr := running.Wait(); !errors.Is(werr, ErrSchedulerClosed) {
		t.Fatalf("running stage: %v", werr)
	}
	if _, werr := queued.Wait(); !errors.Is(werr, ErrSchedulerClosed) {
		t.Fatalf("queued stage: %v", werr)
	}
}

// specConfig returns a speculation-tuned config with a recorder for
// counter assertions.
func specConfig(execs, cores int) (Config, *metrics.Recorder) {
	rec := metrics.NewRecorder()
	return Config{
		NumExecutors:     execs,
		CoresPerExecutor: cores,
		Speculation:      true,
		specMultiplier:   2,
		specQuantile:     0.5,
		specInterval:     time.Millisecond,
		specMinRuntime:   time.Millisecond,
		Recorder:         rec,
	}, rec
}

// TestSpeculationDuplicatesStraggler runs a two-task stage where task 1
// straggles: after the quorum completes, the scheduler must launch
// exactly one duplicate on a different executor, the duplicate's result
// must win, and the late original must be dropped.
func TestSpeculationDuplicatesStraggler(t *testing.T) {
	conf, mrec := specConfig(2, 1)
	s := newTestSched(t, conf)
	rec := &recorder{}
	h, err := s.Submit(StageSpec{
		JobID: 90,
		Tasks: 2,
		Launch: rec.hook(90, func(task, att, exec int) error {
			if task == 0 {
				go func() {
					time.Sleep(5 * time.Millisecond)
					s.Deliver(90, 0, 0, []byte("fast"), nil)
				}()
			}
			// Task 1 straggles: the test delivers its attempts by hand.
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the duplicate: task 1, attempt 1, on the other executor.
	var dup launchRec
	deadline := time.Now().Add(5 * time.Second)
	for {
		var found bool
		for _, l := range rec.snapshot() {
			if l.task == 1 && l.att > 0 {
				dup, found = l, true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no speculative duplicate launched; launches: %v", rec.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if dup.exec != 0 {
		t.Fatalf("duplicate launched on executor %d, want 0 (anywhere but the straggler's 1)", dup.exec)
	}
	if dup.att != 1 {
		t.Fatalf("duplicate got attempt %d, want 1", dup.att)
	}

	// The duplicate finishes first and wins.
	s.Deliver(90, 1, dup.att, []byte("dup"), nil)
	out, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if string(out[1]) != "dup" {
		t.Fatalf("task 1 result %q, want the duplicate's", out[1])
	}
	if e := h.Executors()[1]; e != 0 {
		t.Fatalf("winner executor %d, want 0", e)
	}

	// The original limps home and must be discarded.
	s.Deliver(90, 1, 0, []byte("slow"), nil)
	time.Sleep(20 * time.Millisecond)
	if got := mrec.Count(metrics.CounterSpecLaunched); got != 1 {
		t.Fatalf("spec-launched count %d, want 1", got)
	}
	if got := mrec.Count(metrics.CounterSpecWon); got != 1 {
		t.Fatalf("spec-won count %d, want 1", got)
	}
	if got := mrec.Count(metrics.CounterSpecLost); got != 1 {
		t.Fatalf("spec-lost count %d, want 1", got)
	}
	// Exactly one duplicate: the speculated flag stops repeats.
	var task1 int
	for _, l := range rec.snapshot() {
		if l.task == 1 {
			task1++
		}
	}
	if task1 != 2 {
		t.Fatalf("task 1 launched %d times, want 2 (original + one duplicate)", task1)
	}
}

// TestNoSpeculationFlagHonored checks that NoSpeculation (and Gang)
// stages never get duplicates however long a task runs.
func TestNoSpeculationFlagHonored(t *testing.T) {
	conf, mrec := specConfig(2, 1)
	s := newTestSched(t, conf)
	rec := &recorder{}
	h, err := s.Submit(StageSpec{
		JobID:         100,
		Tasks:         2,
		NoSpeculation: true,
		Launch: rec.hook(100, func(task, att, exec int) error {
			if task == 0 {
				s.Deliver(100, 0, 0, nil, nil)
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // far past threshold
	for _, l := range rec.snapshot() {
		if l.att > 0 {
			t.Fatalf("NoSpeculation stage got a duplicate: %+v", l)
		}
	}
	if got := mrec.Count(metrics.CounterSpecLaunched); got != 0 {
		t.Fatalf("spec-launched count %d, want 0", got)
	}
	s.Deliver(100, 1, 0, nil, nil)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculationMigratesQueuedTask checks the pending-migration path:
// a task queued behind a busy executor past the threshold is re-placed
// onto a free one.
func TestSpeculationMigratesQueuedTask(t *testing.T) {
	conf, mrec := specConfig(2, 1)
	s := newTestSched(t, conf)
	rec := &recorder{}
	// Tasks 0,2 -> executor 0; task 1 -> executor 1. Task 0 completes
	// fast (quorum at 0.5*3 -> 2 needed, so also finish task 1), then
	// task 2 sits queued behind... nothing: executor 0 frees up. Pin the
	// queue instead: occupy executor 0 with a separate stage first.
	hold, err := s.Submit(StageSpec{
		JobID:  110,
		Tasks:  1,
		Policy: Fixed([]int{0}),
		Launch: rec.hook(110, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitCount(t, 1)
	h, err := s.Submit(StageSpec{
		JobID:  111,
		Tasks:  3,
		Policy: Fixed([]int{1, 1, 0}), // 0,1 on the free executor; 2 stuck
		Launch: rec.hook(111, func(task, att, exec int) error {
			if task < 2 {
				s.Deliver(111, task, att, nil, nil)
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Task 2 must migrate to executor 1 once the threshold passes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var mig *launchRec
		for _, l := range rec.snapshot() {
			if l.job == 111 && l.task == 2 {
				mig = &l
			}
		}
		if mig != nil {
			if mig.exec != 1 {
				t.Fatalf("stuck task launched on executor %d, want migration to 1", mig.exec)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued task never migrated off the busy executor")
		}
		time.Sleep(time.Millisecond)
	}
	if got := mrec.Count(metrics.CounterSpecMigrated); got != 1 {
		t.Fatalf("spec-migrated count %d, want 1", got)
	}
	s.Deliver(111, 2, 0, nil, nil)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Deliver(110, 0, 0, nil, nil)
	if _, err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{NumExecutors: 0, CoresPerExecutor: 1}); err == nil {
		t.Fatal("zero executors must be rejected")
	}
	if _, err := New(Config{NumExecutors: 1, CoresPerExecutor: 0}); err == nil {
		t.Fatal("zero cores must be rejected")
	}
	s := newTestSched(t, Config{NumExecutors: 1, CoresPerExecutor: 1})
	if _, err := s.Submit(StageSpec{JobID: 1, Tasks: 0, Launch: func(int, int, int) error { return nil }}); err == nil {
		t.Fatal("zero tasks must be rejected")
	}
	if _, err := s.Submit(StageSpec{JobID: 1, Tasks: 1}); err == nil {
		t.Fatal("nil launch must be rejected")
	}
	if _, err := s.Submit(StageSpec{JobID: 1, Tasks: 1, Gang: true, MaxAttempts: 2,
		Launch: func(int, int, int) error { return nil }}); err == nil {
		t.Fatal("gang with retries must be rejected")
	}
}
