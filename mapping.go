package rio

import (
	"time"

	"rio/internal/sched"
)

// This file re-exports the parts of the static-mapping and task-pruning
// library (internal/sched) that a Mapping closure alone cannot reach: the
// in-order execution model requires the programmer to provide a TaskID →
// WorkerID mapping (§3.2), which is a plain closure, so only the helpers
// behind a feature (shared tasks, §3.5 pruning, steal victims, the 2-D
// tile grid, automatic mappings) are public.

// PartialMapping strips the static owner from the tasks selected by
// shared; those tasks are claimed dynamically at run time (SharedWorker).
func PartialMapping(m Mapping, shared func(TaskID) bool) Mapping {
	return sched.Partial(m, shared)
}

// Grid2D is a pr×pc process grid for 2-D block-cyclic tile ownership
// (the ScaLAPACK distribution used for dense linear algebra).
type Grid2D = sched.Grid2D

// NewGrid2D factors p workers into the squarest possible grid.
func NewGrid2D(p int) Grid2D { return sched.NewGrid2D(p) }

// RankVictims ranks the workers of a mapping as steal victims for
// StealPolicy.Victims: workers owning at least one task, by descending
// owned-task count (ties by ascending worker ID), so thieves probe the
// most overloaded workers first.
func RankVictims(g *Graph, m Mapping, p int) []WorkerID { return sched.RankVictims(g, m, p) }

// RelevantTasks computes, for each worker, which tasks it must process
// (execute or declare) under mapping m — the task-pruning analysis of
// §3.5. Feed the result to PrunedReplay.
func RelevantTasks(g *Graph, m Mapping, p int) [][]bool { return sched.Relevant(g, m, p) }

// PrunedReplay returns a Program replaying only the tasks relevant to the
// executing worker. Pruning preserves correctness because a worker still
// sees every access to every data object it synchronizes on; it removes
// the decentralized model's per-worker unrolling overhead for everything
// else.
func PrunedReplay(g *Graph, k Kernel, relevant [][]bool) Program {
	return sched.PrunedReplay(g, k, relevant)
}

// AutoMapResult is a computed static schedule: mapping, predicted makespan
// and per-worker loads.
type AutoMapResult = sched.AutoMapResult

// AutoMapping computes a static mapping for a recorded graph by list
// scheduling with per-task duration estimates (nil = unit costs) — the
// "automatic computation of static mappings" the paper cites as an
// alternative to programmer-supplied ones.
func AutoMapping(g *Graph, p int, cost func(*Task) time.Duration) *AutoMapResult {
	return sched.AutoMap(g, p, cost)
}

// WeightCost estimates task durations from the recorded weight in Task.K,
// scaled by perUnit — for use with AutoMapping on weighted workloads.
func WeightCost(perUnit time.Duration) func(*Task) time.Duration {
	return sched.WeightCost(perUnit)
}
