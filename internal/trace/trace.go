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

// Stats is the final reading of a run's record: every worker's record once
// it has exited (LastRun.Stats), plus the run's wall time. Its counter
// sums (Executed, Declared, …) are those of Workers.
type Stats struct {
	// Workers holds one record per worker, times included. For the
	// centralized engine index 0 is the master thread (which executes no
	// tasks).
	Workers
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
