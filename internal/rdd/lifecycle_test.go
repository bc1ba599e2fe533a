package rdd

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStopDrainsInflightJobs: stopping with Drain, then Close, lets
// running jobs finish before the transport closes, where a bare Close
// would strand them.
func TestStopDrainsInflightJobs(t *testing.T) {
	ctx, err := NewContext(Config{Name: "t-stop", NumExecutors: 2, CoresPerExecutor: 2})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 6
	handles := make([]*JobHandle, jobs)
	for i := range handles {
		h, err := ctx.SubmitJob(JobSpec{
			Tasks: 2,
			Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
				time.Sleep(10 * time.Millisecond)
				return []byte{byte(task)}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	if n := ctx.inflightJobs.Load(); n == 0 {
		t.Fatal("no jobs tracked in flight")
	}
	if err := ctx.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := ctx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("job %d stranded by Drain and Close: %v", i, err)
		}
	}
	if n := ctx.inflightJobs.Load(); n != 0 {
		t.Fatalf("%d jobs still tracked after Drain and Close", n)
	}
}

// TestStopDrainDeadline: Drain reports a job outliving its budget, and
// the job fails once Close lands (it is the straggler a bare Close
// would have failed anyway).
func TestStopDrainDeadline(t *testing.T) {
	ctx, err := NewContext(Config{Name: "t-deadline", NumExecutors: 1, CoresPerExecutor: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ctx.SubmitJob(JobSpec{
		Tasks: 1,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			// Far longer than the drain budget, short enough that Close
			// (which waits out executor workers) finishes promptly after.
			time.Sleep(500 * time.Millisecond)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Drain(30 * time.Millisecond); err == nil {
		t.Fatal("Drain returned nil with a job past the drain deadline")
	}
	ctx.Close()
	if _, err := h.Wait(); err == nil {
		t.Fatal("job past the drain deadline should fail once Close lands")
	}
}

// TestStopLeavesNoGoroutines is the leak check: a serve-style cycle of
// jobs followed by Drain and Close must return the process to its
// baseline goroutine count (executor pools, senders, watchers all gone).
func TestStopLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		ctx, err := NewContext(Config{Name: fmt.Sprintf("t-leak-%d", cycle), NumExecutors: 2, CoresPerExecutor: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if _, err := ctx.RunJob(JobSpec{
				Tasks: 4,
				Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
					return []byte{1}, nil
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ctx.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across Drain and Close cycles: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestConcurrentSubmitJob races many submitters through SubmitJob from
// separate goroutines; every handle must resolve exactly once with
// correct per-task payloads, and the scheduler must drain to empty.
func TestConcurrentSubmitJob(t *testing.T) {
	ctx, err := NewContext(Config{Name: "t-multi", NumExecutors: 3, CoresPerExecutor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	const submitters, jobsPer = 4, 12
	var wg sync.WaitGroup
	for si := 0; si < submitters; si++ {
		for ji := 0; ji < jobsPer; ji++ {
			wg.Add(1)
			go func(si, ji int) {
				defer wg.Done()
				want := byte(si*16 + ji%16)
				h, err := ctx.SubmitJob(JobSpec{
					Tasks: 3,
					Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
						time.Sleep(time.Millisecond)
						return []byte{want, byte(task)}, nil
					},
				})
				if err != nil {
					t.Errorf("submitter %d job %d submit: %v", si, ji, err)
					return
				}
				out, err := h.Wait()
				if err != nil {
					t.Errorf("submitter %d job %d: %v", si, ji, err)
					return
				}
				for task, p := range out {
					if len(p) != 2 || p[0] != want || p[1] != byte(task) {
						t.Errorf("submitter %d job %d task %d: payload %v", si, ji, task, p)
					}
				}
				out2, err2 := h.Wait()
				if err2 != nil || len(out2) != len(out) {
					t.Errorf("submitter %d job %d: second Wait diverged", si, ji)
				}
			}(si, ji)
		}
	}
	wg.Wait()
	if err := ctx.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.sched.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.QueuedStages)+len(snap.RunningStages)+len(snap.Inflight) != 0 {
		t.Fatalf("scheduler not drained: %+v", snap)
	}
}
