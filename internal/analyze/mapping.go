package analyze

import (
	"rio/internal/sched"
	"rio/internal/stf"
)

// mappingPass analyzes a static TaskID→WorkerID mapping against the
// recorded flow:
//
//   - CodeBadMapping (error): a task mapped outside [0, Workers).
//   - CodeUnusedWorker (info): a worker owning no task while there are
//     at least as many tasks as workers.
//   - CodeImbalance (warning): max per-worker load beyond
//     Config.ImbalanceFactor times the mean (only when there are enough
//     tasks for balance to be possible).
//   - CodeSerialization (warning): in-order feasibility — under the RIO
//     model each worker executes its owned tasks in task-flow order, so
//     the achievable makespan is bounded below by the longest path in
//     the DAG formed by the dependency edges *plus* each worker's
//     ownership chain. When that bound exceeds
//     Config.SerializationFactor × max(critical path, ⌈n/p⌉), the
//     mapping — not the dependencies and not the load — is what
//     serializes the run.
//
// Tasks mapped to stf.SharedWorker (partial mappings) are claimed
// dynamically and contribute no ownership-chain edge. owners is the
// mapping resolved over g's tasks. The feasibility check's two numbers
// come from the preflight walk, and graphPasses reports them after this
// pass (reportSerialization).
func mappingPass(rep *Report, g *stf.Graph, cfg Config, owners []stf.WorkerID) {
	p := cfg.Workers
	if p <= 0 {
		rep.addf(CodeBadMapping, Error, NoID, NoID, NoID,
			"mapping analysis needs a positive worker count (got %d)", p)
		return
	}
	n := len(g.Tasks)
	badRange := 0
	for i, w := range owners {
		if w != stf.SharedWorker && (w < 0 || int(w) >= p) {
			badRange++
			if badRange <= capPerCode {
				rep.addf(CodeBadMapping, Error, stf.TaskID(i), NoID, w,
					"mapping(%d) = %d outside [0,%d)", i, w, p)
			}
		}
	}
	if badRange > 0 {
		if extra := badRange - capPerCode; extra > 0 {
			rep.addf(CodeBadMapping, Error, NoID, NoID, NoID,
				"%d more out-of-range mapping(s) not listed", extra)
		}
		return // load and feasibility are meaningless with a broken range
	}

	hist := make([]int, p)
	mapped := 0
	for _, w := range owners {
		if w != stf.SharedWorker {
			hist[w]++
			mapped++
		}
	}
	if n >= p {
		for w := 0; w < p; w++ {
			if hist[w] == 0 {
				rep.addf(CodeUnusedWorker, Info, NoID, NoID, stf.WorkerID(w),
					"worker %d owns no task (%d tasks over %d workers)", w, n, p)
			}
		}
	}
	if mapped >= 4*p && p > 1 {
		max, maxW := 0, 0
		for w, h := range hist {
			if h > max {
				max, maxW = h, w
			}
		}
		mean := float64(mapped) / float64(p)
		if float64(max) > cfg.imbalanceFactor()*mean {
			rep.addf(CodeImbalance, Warning, NoID, NoID, stf.WorkerID(maxW),
				"load imbalance: worker %d owns %d of %d tasks (mean %.1f); histogram %v",
				maxW, max, mapped, mean, hist)
		}
	}
}

// walk is preflight's one forward walk over the flow (task IDs are a
// topological order for both edge families): it reads each task's
// accesses once for the access lint (when lint is non-nil) and for the two
// stf.Frontier walks of the serialization check (when owners is non-nil),
// and once more to record their finish. Those compute, counting every task
// as one unit of work, the dependency critical path cp (dep, over the
// dependency edges alone) and the in-order makespan lower bound span of the
// mapping (inOrder, over the ownership chains too). No DAG is built.
func walk(g *stf.Graph, lint *accessLint, owners []stf.WorkerID, p int) (cp, span int) {
	if owners == nil {
		for i := range g.Tasks {
			for _, a := range g.Tasks[i].Accesses {
				lint.access(stf.TaskID(i), a)
			}
		}
		return 0, 0
	}
	dep, inOrder := stf.NewFrontier[int](g.NumData), stf.NewFrontier[int](g.NumData)
	lastOwned := make([]int, p) // in-order finish of the worker's last task so far
	for i := range g.Tasks {
		t := &g.Tasks[i]
		var d, o int
		for _, a := range t.Accesses {
			if lint != nil {
				lint.access(stf.TaskID(i), a)
			}
			d, o = max(d, dep.AccessReady(a)), max(o, inOrder.AccessReady(a))
		}
		d, o = d+1, o+1
		if w := owners[i]; w != stf.SharedWorker {
			o = max(o, lastOwned[w]+1)
			lastOwned[w] = o
		}
		for _, a := range t.Accesses {
			dep.AccessDone(a, d)
			inOrder.AccessDone(a, o)
		}
		cp, span = max(cp, d), max(span, o)
	}
	return cp, span
}

// reportSerialization reports a mapping whose in-order bound span exceeds
// factor times what the critical path cp and a balanced load allow.
func reportSerialization(rep *Report, g *stf.Graph, owners []stf.WorkerID, p int, factor float64, cp, span int) {
	n := len(g.Tasks)
	loadBound := (n + p - 1) / p
	ideal := cp
	if loadBound > ideal {
		ideal = loadBound
	}
	if float64(span) > factor*float64(ideal) {
		detail := ""
		if span == n {
			detail = " — the flow is fully serialized"
		}
		rep.addf(CodeSerialization, Warning, NoID, NoID, NoID,
			"mapping-induced serialization: in-order makespan lower bound is %d tasks "+
				"vs critical path %d and balanced-load bound %d (inflation %.2fx)%s",
			span, cp, loadBound, float64(span)/float64(ideal), detail)
		// The serialization comes from ownership chains, which stealing
		// dissolves: a thief executes an overloaded worker's next ready
		// task, so with perfect stealing the bound falls back to
		// max(critical path, balanced load) — the dependency and work
		// limits no mapping can beat.
		victims := sched.RankVictims(g, sched.Table(owners), p)
		rep.addf(CodeStealEscape, Info, NoID, NoID, NoID,
			"imbalance escapable by stealing: bound %d without vs ~%d with work "+
				"stealing (%.2fx); set Options.Steal (e.g. &StealPolicy{Victims: %v}, "+
				"ranked by RankVictims)",
			span, ideal, float64(span)/float64(ideal), victims)
	}
}
