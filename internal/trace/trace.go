// Package trace implements the efficiency-decomposition methodology of the
// paper's §2.3: the cumulative execution time τ_p = p·t_p of a parallel run
// is split into time spent executing tasks (τ_{p,t}), time spent idle
// waiting for dependencies (τ_{p,i}) and time spent inside the runtime
// managing tasks (τ_{p,r}), from which the parallel efficiency factors
//
//	e = e_g · e_l · e_p · e_r
//
// are computed (granularity, locality, pipelining and runtime efficiency).
package trace

import (
	"fmt"
	"time"
)

// WorkerStats is the per-worker time decomposition, read from the worker's
// ProgressCell after the run (ProgressTable.Stats). Engines record task and
// idle time inline; runtime time is the residual of the worker's wall-clock
// activity.
type WorkerStats struct {
	// Task is the cumulative time spent executing task bodies.
	Task time.Duration
	// Idle is the cumulative time spent blocked on dependency waits or
	// empty queues.
	Idle time.Duration
	// Runtime is the cumulative time spent in runtime management: task
	// flow unrolling, dependency bookkeeping, scheduling, dispatch. It is
	// computed as Wall - Task - Idle.
	Runtime time.Duration
	// Wall is the total time this worker was active (from engine start to
	// its own completion of the task flow).
	Wall time.Duration
	// Executed counts tasks this worker ran.
	Executed int64
	// Declared counts tasks this worker skipped over (decentralized
	// engine: tasks mapped to other workers, for which only the local
	// declare_* bookkeeping ran; centralized engine: the tasks the master
	// submitted).
	Declared int64
	// Claimed counts executed tasks that had no static owner and were
	// won dynamically (partial mappings); Claimed <= Executed.
	Claimed int64
	// Retried counts failed task attempts that were rolled back and
	// re-executed under a retry policy (fault tolerance); each retried
	// attempt counts once, so a task succeeding on its third attempt
	// contributes 2.
	Retried int64
	// Skipped counts tasks a Resume checkpoint marked completed, charged
	// to the worker that would have executed them.
	Skipped int64
	// Stolen counts executed tasks this worker took from another worker's
	// static assignment under a steal policy; Stolen <= Executed.
	Stolen int64
	// StealFailed counts steal attempts that proved a task ready but lost
	// the claim race at the last moment (to the owner or another thief).
	StealFailed int64
}

// Stats aggregates a run: one entry per worker plus the run's wall time.
type Stats struct {
	// Workers holds per-worker decompositions. For the centralized engine
	// index 0 is the master thread (which executes no tasks).
	Workers []WorkerStats
	// Wall is the end-to-end run time t_p.
	Wall time.Duration
	// Accounted reports whether fine-grained time accounting was enabled;
	// when false only Wall and the task counters are meaningful.
	Accounted bool
}

// NumWorkers returns p, the number of threads participating in the run.
func (s *Stats) NumWorkers() int { return len(s.Workers) }

// Cumulative returns the three cumulative components (τ_{p,t}, τ_{p,i},
// τ_{p,r}). The runtime component is normalized so the three sum to
// τ_p = p·Wall: per-worker residuals plus the tail time between a worker's
// completion and the end of the run are counted as runtime time (a worker
// that finished early and is merely waiting for the others contributes idle
// time instead, matching the paper's accounting of dependency waits).
func (s *Stats) Cumulative() (task, idle, runtime time.Duration) {
	for _, w := range s.Workers {
		task += w.Task
		idle += w.Idle
		runtime += w.Runtime
		if tail := s.Wall - w.Wall; tail > 0 {
			idle += tail
		}
	}
	return task, idle, runtime
}

// TotalCumulative returns τ_p = p · t_p.
func (s *Stats) TotalCumulative() time.Duration {
	return time.Duration(len(s.Workers)) * s.Wall
}

// Executed returns the total number of tasks executed across workers.
func (s *Stats) Executed() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Executed
	}
	return n
}

// Declared returns the total number of task declarations (decentralized
// skip-over bookkeeping operations) across workers.
func (s *Stats) Declared() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Declared
	}
	return n
}

// Claimed returns the total number of dynamically claimed task executions
// (partial mappings) across workers.
func (s *Stats) Claimed() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Claimed
	}
	return n
}

// Retried returns the total number of rolled-back-and-retried task
// attempts across workers.
func (s *Stats) Retried() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Retried
	}
	return n
}

// Skipped returns the total number of resume-skipped tasks across workers.
func (s *Stats) Skipped() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Skipped
	}
	return n
}

// Stolen returns the total number of stolen task executions across workers.
func (s *Stats) Stolen() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Stolen
	}
	return n
}

// StealFailed returns the total number of lost steal claim races across
// workers.
func (s *Stats) StealFailed() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.StealFailed
	}
	return n
}

// Efficiency is the decomposition e = e_g · e_l · e_p · e_r of §2.3.
type Efficiency struct {
	// Granularity is e_g(g) = t / t(g): how much the kernel itself slows
	// down when the problem is split at granularity g.
	Granularity float64
	// Locality is e_l(g) = t(g) / τ_{p,t}(g): cache effects of running the
	// same tasks on p threads (can exceed 1 when parallel caches help).
	Locality float64
	// Pipelining is e_p(g) = τ_{p,t} / (τ_{p,t} + τ_{p,i}): the runtime's
	// ability to keep workers busy.
	Pipelining float64
	// Runtime is e_r(g) = (τ_{p,t} + τ_{p,i}) / τ_p: the share of
	// cumulative time not spent on task management.
	Runtime float64
	// Parallel is e(g) = t / (p · t_p), the product of the four factors.
	Parallel float64
}

// Decompose computes the efficiency decomposition for a run.
//
//	tBest — execution time t of the fastest sequential algorithm;
//	tSeq  — execution time t(g) of the sequential algorithm split into
//	        tasks of the measured granularity;
//	s     — the parallel run's statistics.
//
// For the paper's synthetic counter kernel tBest == tSeq (e_g = 1) and
// τ_{p,t} == t(g) by construction (e_l = 1), leaving only the two factors
// of interest, e_p and e_r (§5.1).
func Decompose(tBest, tSeq time.Duration, s *Stats) Efficiency {
	task, idle, _ := s.Cumulative()
	total := s.TotalCumulative()
	e := Efficiency{
		Granularity: ratio(tBest, tSeq),
		Locality:    ratio(tSeq, task),
		Pipelining:  ratio(task, task+idle),
		Runtime:     ratio(task+idle, total),
	}
	e.Parallel = ratio(tBest, total)
	return e
}

func ratio(num, den time.Duration) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String renders the decomposition compactly.
func (e Efficiency) String() string {
	return fmt.Sprintf("e=%.3f (e_g=%.3f e_l=%.3f e_p=%.3f e_r=%.3f)",
		e.Parallel, e.Granularity, e.Locality, e.Pipelining, e.Runtime)
}

// Product returns e_g·e_l·e_p·e_r; up to floating-point rounding it equals
// Parallel (the identity the decomposition of §2.3 is built on).
func (e Efficiency) Product() float64 {
	return e.Granularity * e.Locality * e.Pipelining * e.Runtime
}
