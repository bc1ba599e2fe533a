package rdd

import (
	"fmt"
	"time"
)

// Driver lifecycle. A Context with jobs still running must not have its
// transport torn down under them: Close alone severs the task
// connections first, which strands whatever was running into
// ErrSchedulerClosed. The graceful path is Drain, then Close.

// jobStarted/jobFinished bracket one submitted job's engine-side
// lifetime (from accepted by the scheduler to handle resolvable).
func (ctx *Context) jobStarted()  { ctx.inflightJobs.Add(1) }
func (ctx *Context) jobFinished() { ctx.inflightJobs.Add(-1) }

// Drain blocks until every in-flight job has completed, or the timeout
// passes. New submissions during a drain are not rejected — callers
// that want a barrier stop submitting first. A Close after a failed
// Drain fails the jobs still running with ErrSchedulerClosed.
func (ctx *Context) Drain(timeout time.Duration) error {
	if ctx.inflightJobs.Load() == 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		if ctx.inflightJobs.Load() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			n := ctx.inflightJobs.Load()
			if n == 0 {
				return nil
			}
			return fmt.Errorf("rdd: drain deadline: %d jobs still in flight after %v", n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
