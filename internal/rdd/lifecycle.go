package rdd

import (
	"fmt"
	"time"
)

// Driver lifecycle. A Context with jobs still running must not have its
// transport torn down under them: Close alone severs the task
// connections first, which strands whatever was running into
// ErrSchedulerClosed. Stop is the graceful path — drain, then close.

// jobStarted/jobFinished bracket one submitted job's engine-side
// lifetime (from accepted by the scheduler to handle resolvable).
func (ctx *Context) jobStarted()  { ctx.inflightJobs.Add(1) }
func (ctx *Context) jobFinished() { ctx.inflightJobs.Add(-1) }

// ActiveJobs reports the number of submitted jobs that have not yet
// completed (successfully or not).
func (ctx *Context) ActiveJobs() int64 { return ctx.inflightJobs.Load() }

// Drain blocks until every in-flight job has completed, or the timeout
// passes. New submissions during a drain are not rejected — callers
// that want a barrier stop submitting first.
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

// Stop shuts the cluster down gracefully: drain in-flight JobHandles
// (bounded by drainTimeout), then Close. Jobs still running past the
// deadline fail with ErrSchedulerClosed when Close tears the transport
// down — the same outcome a bare Close gives every job, but only for
// the stragglers. Returns the drain error if any, else the close error.
func (ctx *Context) Stop(drainTimeout time.Duration) error {
	derr := ctx.Drain(drainTimeout)
	cerr := ctx.Close()
	if derr != nil {
		return derr
	}
	return cerr
}
