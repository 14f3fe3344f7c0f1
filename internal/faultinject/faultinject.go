// Package faultinject builds deliberately broken STF programs, kernels and
// mappings for exercising the runtime's failure paths: task panics,
// replays that diverge across workers, and mappings that return
// out-of-range workers. The engine test suites
// (internal/enginetest) run every engine against every fault class under
// the race detector, asserting that each fault surfaces as a prompt,
// descriptive error instead of a hang or silent corruption.
//
// All injectors are deterministic: given the same graph and parameters
// they perturb the same tasks, so failing runs are reproducible.
package faultinject

import (
	"rio/internal/stf"
)

// PanicAt wraps k to panic when executing task id — the baseline fault the
// runtime has always survived.
func PanicAt(k stf.Kernel, id stf.TaskID) stf.Kernel {
	return func(t *stf.Task, w stf.WorkerID) {
		if t.ID == id {
			panic("faultinject: injected panic")
		}
		k(t, w)
	}
}

// OutOfRange wraps mapping m to return an impossible worker for task at —
// the protocol violation the in-order engine must reject instead of
// wedging.
func OutOfRange(m stf.Mapping, at stf.TaskID) stf.Mapping {
	return func(id stf.TaskID) stf.WorkerID {
		if id == at {
			return stf.WorkerID(1 << 20)
		}
		return m(id)
	}
}

// DropTaskAt returns a Program replaying g with k, except that the worker
// with ID w silently skips task id — a divergent replay. When mapping(id)
// == w the task is never executed and every worker that depends on its
// data deadlocks until the run is stopped, whose StallError then names the
// blocked workers. (The skip is an ID gap, so it masquerades as pruning;
// the divergence guard rightly stays silent.)
func DropTaskAt(g *stf.Graph, k stf.Kernel, w stf.WorkerID, id stf.TaskID) stf.Program {
	return func(s stf.Submitter) {
		drop := s.Worker() == w
		for i := range g.Tasks {
			if drop && g.Tasks[i].ID == id {
				continue
			}
			s.SubmitTask(&g.Tasks[i], k)
		}
	}
}

// ExtraAccessAt returns a Program replaying g with k, except that the
// worker with ID w sees task id with access a appended — a divergent
// replay with no ID gaps. Choose a data object nobody else touches and the
// run completes with corrupted bookkeeping instead of deadlocking: the
// scenario the replay-divergence guard must turn into a DivergenceError.
func ExtraAccessAt(g *stf.Graph, k stf.Kernel, w stf.WorkerID, id stf.TaskID, a stf.Access) stf.Program {
	return func(s stf.Submitter) {
		diverge := s.Worker() == w
		for i := range g.Tasks {
			t := &g.Tasks[i]
			if diverge && t.ID == id {
				alt := *t
				alt.Accesses = append(append([]stf.Access(nil), t.Accesses...), a)
				s.SubmitTask(&alt, k)
				continue
			}
			s.SubmitTask(t, k)
		}
	}
}

// ReorderAccessesAt returns a Program replaying g with k, except that the
// worker with ID w sees task id's access list reversed — the same access
// *set* in a different order. The protocol's per-data bookkeeping is
// order-insensitive, so on otherwise-untouched data the run completes;
// only an order-sensitive divergence guard can tell the replays apart.
func ReorderAccessesAt(g *stf.Graph, k stf.Kernel, w stf.WorkerID, id stf.TaskID) stf.Program {
	return func(s stf.Submitter) {
		diverge := s.Worker() == w
		for i := range g.Tasks {
			t := &g.Tasks[i]
			if diverge && t.ID == id {
				alt := *t
				alt.Accesses = make([]stf.Access, len(t.Accesses))
				for j, a := range t.Accesses {
					alt.Accesses[len(t.Accesses)-1-j] = a
				}
				s.SubmitTask(&alt, k)
				continue
			}
			s.SubmitTask(t, k)
		}
	}
}

// ChangeModeAt returns a Program replaying g with k, except that the worker
// with ID w sees task id's access to data d with mode m instead of the
// recorded one — same task, same data, different access mode. On data
// nothing else synchronizes on the run completes and only a mode-sensitive
// divergence guard can catch it.
func ChangeModeAt(g *stf.Graph, k stf.Kernel, w stf.WorkerID, id stf.TaskID, d stf.DataID, m stf.AccessMode) stf.Program {
	return func(s stf.Submitter) {
		diverge := s.Worker() == w
		for i := range g.Tasks {
			t := &g.Tasks[i]
			if diverge && t.ID == id {
				alt := *t
				alt.Accesses = append([]stf.Access(nil), t.Accesses...)
				for j := range alt.Accesses {
					if alt.Accesses[j].Data == d {
						alt.Accesses[j].Mode = m
					}
				}
				s.SubmitTask(&alt, k)
				continue
			}
			s.SubmitTask(t, k)
		}
	}
}

// SwapAccessesAt returns a Program replaying g with k, except that the
// worker with ID w sees tasks a and b with each other's access lists — a
// divergent replay that typically deadlocks (worker w's private dependency
// registers disagree with everyone else's).
func SwapAccessesAt(g *stf.Graph, k stf.Kernel, w stf.WorkerID, a, b stf.TaskID) stf.Program {
	return func(s stf.Submitter) {
		diverge := s.Worker() == w
		for i := range g.Tasks {
			t := &g.Tasks[i]
			if diverge && (t.ID == a || t.ID == b) {
				other := a
				if t.ID == a {
					other = b
				}
				alt := *t
				alt.Accesses = g.Tasks[other].Accesses
				s.SubmitTask(&alt, k)
				continue
			}
			s.SubmitTask(t, k)
		}
	}
}
