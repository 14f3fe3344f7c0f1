// Package sim is a discrete-event simulator of the two execution models,
// parameterized by the per-task cost constants measured on real hardware
// (internal/bench's cost-model fit). It exists because fine-grained
// overhead measurements on a live Go runtime are polluted by the goroutine
// scheduler and GC — and because this reproduction may run on fewer
// hardware threads than the paper's 24-core testbed. The simulator
// replays a task graph on any number of *ideal* workers and reports the
// same quantities as the real engines (makespan, cumulative task / idle /
// runtime time, efficiency decomposition), so the paper's figures can be
// regenerated at their original scale and the measured engine behaviour
// can be cross-checked against the cost models of §3.3.
//
// Two models are simulated:
//
//   - Decentralized in-order (RIO): every worker scans the whole task
//     flow in order, paying DeclareCost for foreign tasks and
//     AcquireCost + duration + ReleaseCost for owned ones, blocking until
//     the task's dependencies have completed. Because each worker is
//     strictly in-order, a single pass over the flow in task order
//     computes the exact schedule, reading each task's ready time from an
//     stf.Frontier instead of a DAG.
//
//   - Centralized out-of-order: a master thread pays DispatchCost per
//     task to unroll and wire it (eq. (1)'s n·t_r term); a task becomes
//     available when it is both wired and dependency-free; idle workers
//     take the earliest-available task (FIFO). An event loop computes the
//     schedule.
package sim

import (
	"fmt"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// Costs are the per-task runtime-cost constants of an execution model, in
// simulated time. Fit them from measurements (bench.CostModel) or explore
// hypothetical hardware.
type Costs struct {
	// DeclareCost is RIO's cost to skip over a foreign task (a couple of
	// private writes, §3.3).
	DeclareCost time.Duration
	// AcquireCost and ReleaseCost bracket an owned task's execution
	// (get_* / terminate_* on its accesses).
	AcquireCost, ReleaseCost time.Duration
	// DispatchCost is the centralized master's per-task management time
	// (unrolling, wiring, queueing) — eq. (1)'s t_r.
	DispatchCost time.Duration
	// CompleteCost is the centralized per-task completion handling on the
	// worker (successor release, queue traffic).
	CompleteCost time.Duration
}

// Workload couples a task graph with per-task durations.
type Workload struct {
	Graph *stf.Graph
	// Duration returns the kernel time of task id.
	Duration func(id stf.TaskID) time.Duration
}

// UniformWorkload gives every task of g the same duration.
func UniformWorkload(g *stf.Graph, d time.Duration) Workload {
	return Workload{Graph: g, Duration: func(stf.TaskID) time.Duration { return d }}
}

// Result is a simulated run.
type Result struct {
	// Makespan is the simulated t_p.
	Makespan time.Duration
	// Stats mirrors the real engines' decomposition (per simulated
	// worker; the centralized master is worker 0).
	Stats trace.Stats
	// Start and Finish hold each task's simulated schedule.
	Start, Finish []time.Duration
}

// Efficiency computes e_p and e_r of the simulated run (e_g = e_l = 1 in
// simulation, as with the paper's synthetic kernel).
func (r *Result) Efficiency() trace.Efficiency {
	task, _, _ := r.Stats.Cumulative()
	return trace.Decompose(task, task, &r.Stats)
}

// SimulateRIO computes the exact decentralized in-order schedule of w on
// workers workers under mapping m.
//
// Correctness of the single pass: workers execute their tasks in task-flow
// order, so when task t is processed every earlier task's finish time is
// already final; the owner's clock advances by waiting (idle) until the
// dependencies' max finish time (the frontier's Ready), and every other
// worker's clock advances by DeclareCost.
func SimulateRIO(w Workload, workers int, m stf.Mapping, c Costs) (*Result, error) {
	g := w.Graph
	if workers < 1 {
		return nil, fmt.Errorf("sim: need at least 1 worker")
	}
	frontier := stf.NewFrontier[time.Duration](g.NumData)
	n := len(g.Tasks)
	res := &Result{
		Start:  make([]time.Duration, n),
		Finish: make([]time.Duration, n),
	}
	clock := make([]time.Duration, workers)
	busy := make([]time.Duration, workers) // task+overhead time per worker
	taskTime := make([]time.Duration, workers)
	idleAcc := make([]time.Duration, workers)

	for i := range g.Tasks {
		id := stf.TaskID(i)
		owner := m(id)
		if owner < 0 || int(owner) >= workers {
			return nil, fmt.Errorf("sim: mapping(%d) = %d out of range", id, owner)
		}
		ready := frontier.Ready(&g.Tasks[i])
		for v := 0; v < workers; v++ {
			if stf.WorkerID(v) != owner {
				clock[v] += c.DeclareCost
				busy[v] += c.DeclareCost
				continue
			}
			start := clock[v] + c.AcquireCost
			if ready > start {
				idleAcc[v] += ready - start
				start = ready
			}
			dur := w.Duration(id)
			finish := start + dur + c.ReleaseCost
			res.Start[i], res.Finish[i] = start, finish
			busy[v] += c.AcquireCost + dur + c.ReleaseCost
			taskTime[v] += dur
			clock[v] = finish
		}
		frontier.Done(&g.Tasks[i], res.Finish[i])
	}
	for _, t := range clock {
		if t > res.Makespan {
			res.Makespan = t
		}
	}
	res.Stats = trace.Stats{Wall: res.Makespan, Accounted: true,
		Workers: make([]trace.Worker, workers)}
	for v := 0; v < workers; v++ {
		res.Stats.Workers[v] = trace.Worker{
			Task:    taskTime[v],
			Idle:    idleAcc[v],
			Runtime: busy[v] - taskTime[v],
			Wall:    clock[v],
		}
	}
	return res, nil
}

// SimulateCentralized computes the centralized out-of-order schedule:
// worker 0 is the master (pure runtime time), workers 1..p-1 execute.
// Dispatch is FIFO over availability time (ties by task ID).
func SimulateCentralized(w Workload, workers int, c Costs) (*Result, error) {
	if workers < 2 {
		return nil, fmt.Errorf("sim: centralized needs a master and at least one executor")
	}
	g := w.Graph
	n := len(g.Tasks)
	deps := g.Dependencies()
	res := &Result{
		Start:  make([]time.Duration, n),
		Finish: make([]time.Duration, n),
	}

	// Wiring time: the master processes tasks in flow order.
	wired := make([]time.Duration, n)
	for i := range wired {
		wired[i] = time.Duration(i+1) * c.DispatchCost
	}
	masterWall := time.Duration(0)
	if n > 0 {
		masterWall = wired[n-1]
	}

	// available[i]: max(wired, deps' finish + CompleteCost).
	remaining := make([]int, n)
	for i, ds := range deps {
		remaining[i] = len(ds)
	}
	succs := g.Successors()

	// Ready pool ordered by (availableTime, id).
	type readyTask struct {
		at time.Duration
		id int
	}
	var pool []readyTask
	push := func(id int, at time.Duration) {
		pool = append(pool, readyTask{at, id})
	}

	avail := make([]time.Duration, n)
	for i := range avail {
		avail[i] = wired[i]
	}
	for i, r := range remaining {
		if r == 0 {
			push(i, avail[i])
		}
	}

	nexec := workers - 1
	clock := make([]time.Duration, nexec)
	taskTime := make([]time.Duration, nexec)
	overTime := make([]time.Duration, nexec)
	idleAcc := make([]time.Duration, nexec)
	done := 0
	for done < n {
		// Pick the executor that frees up first, give it the earliest
		// available ready task.
		wv := 0
		for v := 1; v < nexec; v++ {
			if clock[v] < clock[wv] {
				wv = v
			}
		}
		// Earliest-available ready task (FIFO by availability then ID).
		best := -1
		for i, rt := range pool {
			if best == -1 || rt.at < pool[best].at || (rt.at == pool[best].at && rt.id < pool[best].id) {
				best = i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("sim: no ready task but %d tasks unfinished (cyclic graph?)", n-done)
		}
		rt := pool[best]
		pool[best] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]

		start := clock[wv]
		if rt.at > start {
			idleAcc[wv] += rt.at - start
			start = rt.at
		}
		dur := w.Duration(stf.TaskID(rt.id))
		finish := start + dur + c.CompleteCost
		res.Start[rt.id], res.Finish[rt.id] = start, finish
		clock[wv] = finish
		taskTime[wv] += dur
		overTime[wv] += c.CompleteCost
		done++
		for _, s := range succs[rt.id] {
			si := int(s)
			if fin := res.Finish[rt.id]; fin > avail[si] {
				avail[si] = fin
			}
			remaining[si]--
			if remaining[si] == 0 {
				push(si, avail[si])
			}
		}
	}
	for _, t := range clock {
		if t > res.Makespan {
			res.Makespan = t
		}
	}
	if masterWall > res.Makespan {
		res.Makespan = masterWall
	}
	res.Stats = trace.Stats{Wall: res.Makespan, Accounted: true,
		Workers: make([]trace.Worker, workers)}
	// The master thread is dedicated to task management for the whole run
	// (as in StarPU), which is what caps the centralized runtime
	// efficiency at (p-1)/p (paper §5.2).
	res.Stats.Workers[0] = trace.Worker{Runtime: res.Makespan, Wall: res.Makespan}
	for v := 0; v < nexec; v++ {
		res.Stats.Workers[v+1] = trace.Worker{
			Task:    taskTime[v],
			Idle:    idleAcc[v],
			Runtime: overTime[v],
			Wall:    clock[v],
		}
	}
	return res, nil
}
