package sched

import "rio/internal/stf"

// Task pruning (paper §3.5): the main drawback of the decentralized model
// is that every worker unrolls the whole task flow, so the bookkeeping work
// grows with the *total* task count. When the application knows its access
// pattern, each worker can unroll only the relevant part of the flow.
//
// A task is relevant to worker w if (a) w executes it, or (b) it accesses a
// data object that some task owned by w also accesses. Rule (b) is what
// keeps the protocol of §3.4 correct under pruning: the worker's local
// counters for every data object it will ever synchronize on still see
// every access to that object, while objects it never touches may drift —
// harmlessly, since their counters are never consulted.

// Relevant computes, for each of p workers, which tasks of g it must
// process (execute or declare) under mapping m. The result feeds
// PrunedReplay. Tasks mapped to stf.SharedWorker (partial mappings) may be
// executed by anyone, so they are relevant to every worker and their data
// counts as touched by every worker. A lone worker executes or claims
// every task, so at p = 1 every task is relevant and m is not called.
func Relevant(g *stf.Graph, m stf.Mapping, p int) [][]bool {
	if p == 1 {
		return RelevantOwned(g, nil, 1)
	}
	return RelevantOwned(g, Owners(g, m), p)
}

// RelevantOwned is Relevant under a mapping resolved into an owner table
// (owners[i] owns task i; nil will do at p = 1, where every task is
// relevant). It does not check the instance: a task owned outside [0, p)
// is relevant to no worker it does not touch the data of, and an access
// outside g's data touches nothing, so that a caller may prune before it
// compiles, which rejects both.
func RelevantOwned(g *stf.Graph, owners []stf.WorkerID, p int) [][]bool {
	rel := make([][]bool, p)
	for w := range rel {
		rel[w] = make([]bool, len(g.Tasks))
	}
	if p == 1 {
		for i := range rel[0] {
			rel[0][i] = true
		}
		return rel
	}
	// Pass 1: which data objects does each worker own tasks on?
	touches := make([][]bool, p)
	for w := range touches {
		touches[w] = make([]bool, g.NumData)
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		w := owners[i]
		if w != stf.SharedWorker && (w < 0 || int(w) >= p) {
			continue
		}
		for _, a := range t.Accesses {
			if a.Data < 0 || int(a.Data) >= g.NumData {
				continue
			}
			if w != stf.SharedWorker {
				touches[w][a.Data] = true
				continue
			}
			for v := 0; v < p; v++ {
				touches[v][a.Data] = true
			}
		}
	}
	// Pass 2: a task is relevant to w if owned by w (or shared) or
	// touching w's data.
	for i := range g.Tasks {
		t := &g.Tasks[i]
		owner := owners[i]
		if owner == stf.SharedWorker {
			for w := 0; w < p; w++ {
				rel[w][i] = true
			}
			continue
		}
		if owner >= 0 && int(owner) < p {
			rel[owner][i] = true
		}
		for w := 0; w < p; w++ {
			if rel[w][i] {
				continue
			}
			for _, a := range t.Accesses {
				if a.Data >= 0 && int(a.Data) < g.NumData && touches[w][a.Data] {
					rel[w][i] = true
					break
				}
			}
		}
	}
	return rel
}

// PruneRatio returns the fraction of (worker, task) pairs eliminated by
// pruning: 0 means every worker still unrolls everything, values close to 1
// mean almost all foreign bookkeeping was removed.
func PruneRatio(rel [][]bool) float64 {
	var kept, total int
	for _, r := range rel {
		total += len(r)
		for _, b := range r {
			if b {
				kept++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(kept)/float64(total)
}

// PrunedReplay returns a Program that replays only the tasks relevant to
// the executing worker, per the relevance bitmaps from Relevant. Submitters
// that are not a decentralized worker (sequential and centralized engines
// report stf.MasterWorker) receive the full flow.
func PrunedReplay(g *stf.Graph, k stf.Kernel, rel [][]bool) stf.Program {
	return func(s stf.Submitter) {
		w := s.Worker()
		if w < 0 || int(w) >= len(rel) {
			for i := range g.Tasks {
				s.SubmitTask(&g.Tasks[i], k)
			}
			return
		}
		r := rel[w]
		for i := range g.Tasks {
			if r[i] {
				s.SubmitTask(&g.Tasks[i], k)
			}
		}
	}
}
