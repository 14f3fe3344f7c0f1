package sched

import (
	"time"

	"rio/internal/stf"
)

// Automatic static-mapping computation (the paper points to Agullo,
// Beaumont, Eyraud-Dubois & Kumar, "Are static schedules so bad?", IPDPS
// 2016, as evidence that computed static schedules can rival dynamic
// ones). AutoMap is a list scheduler: tasks are visited in task-flow order
// and each is assigned to the worker that can finish it earliest, given
// the workers' accumulated loads and the finish times of the task's
// dependencies. The resulting owner table is a valid static mapping for
// the in-order engine, and the predicted makespan is a byproduct.
//
// Because the in-order engine executes each worker's tasks strictly in
// task-flow order, the list schedule's per-worker sequences are exactly
// realizable — no reordering is lost in translation.

// AutoMapResult carries the computed mapping and its schedule estimate.
type AutoMapResult struct {
	// Mapping is the computed TaskID → WorkerID table.
	Mapping stf.Mapping
	// Makespan is the schedule's predicted completion time.
	Makespan time.Duration
	// Loads is the per-worker busy time under the schedule.
	Loads []time.Duration
}

// AutoMap computes a static mapping of g onto p workers using per-task
// duration estimates (cost may be nil for unit costs).
func AutoMap(g *stf.Graph, p int, cost func(*stf.Task) time.Duration) *AutoMapResult {
	if cost == nil {
		cost = func(*stf.Task) time.Duration { return time.Microsecond }
	}
	frontier := stf.NewFrontier[time.Duration](g.NumData)
	owners := make([]stf.WorkerID, len(g.Tasks))
	clock := make([]time.Duration, p) // per-worker ready time
	load := make([]time.Duration, p)

	for i := range g.Tasks {
		t := &g.Tasks[i]
		ready := frontier.Ready(t)
		dur := cost(t)
		// Earliest-finish-time worker; ties go to the least loaded.
		best := 0
		bestStart := maxDur(clock[0], ready)
		for w := 1; w < p; w++ {
			start := maxDur(clock[w], ready)
			if start < bestStart || (start == bestStart && load[w] < load[best]) {
				best, bestStart = w, start
			}
		}
		owners[i] = stf.WorkerID(best)
		clock[best] = bestStart + dur
		frontier.Done(t, clock[best])
		load[best] += dur
	}

	res := &AutoMapResult{Mapping: Table(owners), Loads: load}
	for _, c := range clock {
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	return res
}

// WeightCost builds a duration estimator from the tasks' K field scaled by
// perUnit — matching workloads (like SparseCholesky) that carry a work
// weight there.
func WeightCost(perUnit time.Duration) func(*stf.Task) time.Duration {
	return func(t *stf.Task) time.Duration {
		w := t.K
		if w < 1 {
			w = 1
		}
		return time.Duration(w) * perUnit
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
