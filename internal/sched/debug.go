package sched

import (
	"sort"
	"time"
)

// StageInfo is one stage's scheduling state as seen by Snapshot.
type StageInfo struct {
	JobID       int64  `json:"job"`
	Tasks       int    `json:"tasks"`
	Remaining   int    `json:"remaining"`
	Inflight    int    `json:"inflight"`
	PendingTask int    `json:"pending_tasks"`
	Gang        bool   `json:"gang,omitempty"`
	GangKey     string `json:"gang_key,omitempty"`
	QueuedForNS int64  `json:"queued_for_ns,omitempty"`
}

// AttemptInfo is one launched, unreported task attempt.
type AttemptInfo struct {
	JobID     int64 `json:"job"`
	Task      int   `json:"task"`
	Attempt   int   `json:"attempt"`
	Exec      int   `json:"exec"`
	RunningNS int64 `json:"running_ns"`
}

// Snapshot is a consistent point-in-time view of the scheduler: slot
// occupancy, admission queue, gang queues, and in-flight attempts —
// the payload of /debug/sparker/sched. Taken on the scheduler loop, so
// it is exact, not approximate.
type Snapshot struct {
	TotalSlots    int                `json:"total_slots"`
	FreeSlots     []int              `json:"free_slots"` // per executor
	DeadSlots     []int              `json:"dead_slots,omitempty"`
	LiveExecutors []int              `json:"live_executors"`
	QueuedStages  []StageInfo        `json:"queued_stages,omitempty"`
	RunningStages []StageInfo        `json:"running_stages,omitempty"`
	Inflight      []AttemptInfo      `json:"inflight,omitempty"`
	GangQueues    map[string][]int64 `json:"gang_queues,omitempty"` // gang key -> queued jobs, FIFO
}

func stageInfo(st *stage, now time.Time) StageInfo {
	return StageInfo{
		JobID:       st.spec.JobID,
		Tasks:       st.spec.Tasks,
		Remaining:   st.remaining,
		Inflight:    st.inflight,
		PendingTask: len(st.pending),
		Gang:        st.spec.Gang,
		GangKey:     st.spec.GangKey,
		QueuedForNS: now.Sub(st.submitted).Nanoseconds(),
	}
}

// Snapshot captures the scheduler's live state. It runs on the event
// loop (like the membership calls), so it never races the state it reads;
// ErrSchedulerClosed after Close.
func (s *Scheduler) Snapshot() (Snapshot, error) {
	var out Snapshot
	err := s.onLoop(func() {
		now := time.Now()
		out.TotalSlots = len(s.live) * s.conf.CoresPerExecutor
		out.FreeSlots = append([]int(nil), s.free...)
		out.LiveExecutors = append([]int(nil), s.live...)
		for e, d := range s.dead {
			if d {
				out.DeadSlots = append(out.DeadSlots, e)
			}
		}
		queued := make(map[int64]bool, len(s.queue))
		for _, st := range s.queue {
			queued[st.spec.JobID] = true
			out.QueuedStages = append(out.QueuedStages, stageInfo(st, now))
			if st.spec.Gang && st.spec.GangKey != "" {
				if out.GangQueues == nil {
					out.GangQueues = map[string][]int64{}
				}
				out.GangQueues[st.spec.GangKey] = append(out.GangQueues[st.spec.GangKey], st.spec.JobID)
			}
		}
		for id, st := range s.stages {
			if !queued[id] {
				out.RunningStages = append(out.RunningStages, stageInfo(st, now))
			}
		}
		for k, ri := range s.inflight {
			out.Inflight = append(out.Inflight, AttemptInfo{
				JobID:     k.job,
				Task:      k.task,
				Attempt:   k.att,
				Exec:      ri.exec,
				RunningNS: now.Sub(ri.start).Nanoseconds(),
			})
		}
	})
	if err != nil {
		return Snapshot{}, err
	}
	// The loop iterates maps; sort outside it for stable output.
	sort.Slice(out.RunningStages, func(i, j int) bool {
		return out.RunningStages[i].JobID < out.RunningStages[j].JobID
	})
	sort.Slice(out.Inflight, func(i, j int) bool {
		a, b := out.Inflight[i], out.Inflight[j]
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.Attempt < b.Attempt
	})
	return out, nil
}
