package stf

import "time"

// This file derives explicit dependency information from a recorded task
// flow, following the STF rules (paper §2.1): each read access happens
// after all previous writes to the same data, and each write access happens
// after all previous reads and writes to the same data. Engines that need
// an explicit DAG (the centralized baseline, the model checker, the Chrome
// export) use Dependencies; what only needs each task's earliest start
// (depths, critical paths, list schedules, simulated in-order runs) walks
// a Frontier, which keeps the dependencies implicit in per-data state the
// way the decentralized RIO engine keeps them in per-data counters.

// Dependencies returns, for each task, the sorted list of direct
// predecessor task IDs implied by STF semantics. Transitively implied
// predecessors are not repeated: a read depends only on the last writer,
// and a write depends on the last writer plus all readers since that write
// (the last writer is included only when there are no intervening readers,
// since readers already depend on it).
//
// Reduction accesses form runs: a maximal sequence of consecutive
// reductions on the same data has no internal ordering (the tasks commute);
// the run as a whole is ordered like a single write — after all earlier
// readers/writers, before all later ones.
func (g *Graph) Dependencies() [][]TaskID {
	deps := make([][]TaskID, len(g.Tasks))
	type dataState struct {
		lastWriter TaskID
		readers    []TaskID
		// openRun is the current (not yet closed) reduction run;
		// closedRun is the most recently closed one — direct
		// predecessors of readers arriving after the closing read(s).
		openRun   []TaskID
		closedRun []TaskID
	}
	states := make([]dataState, g.NumData)
	for i := range states {
		states[i].lastWriter = NoTask
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		var pred []TaskID
		for _, a := range t.Accesses {
			st := &states[a.Data]
			switch {
			case a.Mode.Writes():
				switch {
				case len(st.readers)+len(st.openRun) > 0:
					pred = append(pred, st.readers...)
					pred = append(pred, st.openRun...)
				case st.lastWriter != NoTask:
					pred = append(pred, st.lastWriter)
				}
			case a.Mode.Commutes():
				// A reduction waits for the readers since the last
				// write (which transitively cover earlier runs), or
				// the writer itself.
				if len(st.readers) > 0 {
					pred = append(pred, st.readers...)
				} else if st.lastWriter != NoTask {
					pred = append(pred, st.lastWriter)
				}
			default: // read
				switch {
				case len(st.openRun) > 0:
					pred = append(pred, st.openRun...)
				case len(st.closedRun) > 0:
					pred = append(pred, st.closedRun...)
				case st.lastWriter != NoTask:
					pred = append(pred, st.lastWriter)
				}
			}
		}
		deps[t.ID] = dedupSorted(pred)
		// Update the per-data state after computing this task's deps.
		for _, a := range t.Accesses {
			st := &states[a.Data]
			switch {
			case a.Mode.Writes():
				st.lastWriter = t.ID
				st.readers = st.readers[:0]
				st.openRun = nil
				st.closedRun = nil
			case a.Mode.Commutes():
				st.openRun = append(st.openRun, t.ID)
			default: // read closes any open run
				if len(st.openRun) > 0 {
					st.closedRun = st.openRun
					st.openRun = nil
				}
				st.readers = append(st.readers, t.ID)
			}
		}
	}
	return deps
}

// Successors inverts Dependencies: for each task, the sorted list of tasks
// that directly depend on it.
func (g *Graph) Successors() [][]TaskID {
	deps := g.Dependencies()
	succs := make([][]TaskID, len(g.Tasks))
	for id, ds := range deps {
		for _, d := range ds {
			succs[d] = append(succs[d], TaskID(id))
		}
	}
	return succs
}

// Levels returns the dependency depth of each task (0 for tasks with no
// predecessors) and the critical-path length in tasks (max level + 1, or 0
// for an empty graph): a Frontier walk with unit durations.
func (g *Graph) Levels() ([]int, int) {
	f := NewFrontier[int](g.NumData)
	levels := make([]int, len(g.Tasks))
	depth := 0
	for i := range g.Tasks {
		t := &g.Tasks[i]
		levels[i] = f.Ready(t)
		f.Done(t, levels[i]+1)
		depth = max(depth, levels[i]+1)
	}
	return levels, depth
}

// CriticalPath returns the length of the longest dependency chain of g
// under the task durations dur — no schedule can beat max(critical,
// work/p) — and the total work.
func CriticalPath(g *Graph, dur func(TaskID) time.Duration) (critical, work time.Duration) {
	f := NewFrontier[time.Duration](g.NumData)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		d := dur(TaskID(i))
		finish := f.Ready(t) + d
		f.Done(t, finish)
		critical, work = max(critical, finish), work+d
	}
	return critical, work
}

// Frontier answers "when can task t start" in one forward walk over a
// flow, without building its DAG: the submission order is a topological
// order, so a task's predecessors on a datum are whole groups of earlier
// tasks — the last writer, the readers since, the reductions since — and
// of a group only the latest finish matters. Feed it tasks in flow order,
// each Ready before its Done.
//
// The walk is exact (it returns the maximum finish over the task's
// Dependencies) whenever finish times never decrease along a dependency
// edge, which holds when durations are non-negative. Then a later group on
// a datum always finishes no earlier than the groups it depends on: the
// readers since a write cover the reduction runs they closed, so neither
// the open/closed-run split of Dependencies nor its emptiness tests are
// needed.
type Frontier[T ~int | ~int64] struct {
	data []frontierDatum[T]
}

// frontierDatum holds, for one datum, the latest finish of its last writer,
// of the readers since that write and of the reductions since that write.
type frontierDatum[T ~int | ~int64] struct{ writer, readers, reductions T }

// NewFrontier returns the frontier of an empty flow over numData data.
func NewFrontier[T ~int | ~int64](numData int) *Frontier[T] {
	return &Frontier[T]{data: make([]frontierDatum[T], numData)}
}

// Ready returns the latest finish among t's predecessors (zero if none):
// the latest AccessReady of its accesses.
func (f *Frontier[T]) Ready(t *Task) T {
	var ready T
	for _, a := range t.Accesses {
		ready = max(ready, f.AccessReady(a))
	}
	return ready
}

// AccessReady returns the latest finish among the predecessors of one
// access (zero if none): a read waits for the writer and the reductions, a
// reduction for the writer and the readers, a write for all three. A walk
// that reads each access once for several purposes calls it in place of
// Ready.
func (f *Frontier[T]) AccessReady(a Access) T {
	d := &f.data[a.Data]
	switch {
	case a.Mode.Writes():
		return max(d.writer, d.readers, d.reductions)
	case a.Mode.Commutes():
		return max(d.writer, d.readers)
	default: // read
		return max(d.writer, d.reductions)
	}
}

// Done records that t finishes at finish: AccessDone of each of its
// accesses.
func (f *Frontier[T]) Done(t *Task, finish T) {
	for _, a := range t.Accesses {
		f.AccessDone(a, finish)
	}
}

// AccessDone records that one access finishes at finish: a write starts a
// new group on its datum, a read or a reduction joins the current one.
func (f *Frontier[T]) AccessDone(a Access, finish T) {
	d := &f.data[a.Data]
	switch {
	case a.Mode.Writes():
		*d = frontierDatum[T]{writer: finish}
	case a.Mode.Commutes():
		d.reductions = max(d.reductions, finish)
	default: // read
		d.readers = max(d.readers, finish)
	}
}

// CheckOrder verifies that order (a permutation of all task IDs, in
// observed start order) is consistent with the STF dependencies of g: every
// task appears after all its predecessors. It returns the ID of the first
// offending task, or NoTask if the order is valid. Tests use this as a
// sequential-consistency oracle against execution traces.
func (g *Graph) CheckOrder(order []TaskID) TaskID {
	deps := g.Dependencies()
	pos := make([]int, len(g.Tasks))
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range order {
		if id < 0 || int(id) >= len(g.Tasks) || pos[id] != -1 {
			return id
		}
		pos[id] = i
	}
	for id := range g.Tasks {
		if pos[id] == -1 {
			return TaskID(id)
		}
		for _, d := range deps[id] {
			if pos[d] > pos[id] {
				return TaskID(id)
			}
		}
	}
	return NoTask
}

// ConflictFree reports whether tasks a and b may run concurrently under STF
// semantics: they must not access a common data object with at least one
// write (the data-race-freedom condition of the paper's formal spec). Two
// reductions on the same data do not conflict — they commute and the
// engine serializes their bodies — but a reduction conflicts with any read
// or write of the data.
func ConflictFree(a, b *Task) bool {
	for _, aa := range a.Accesses {
		for _, ba := range b.Accesses {
			if aa.Data != ba.Data {
				continue
			}
			if aa.Mode.Commutes() && ba.Mode.Commutes() {
				continue
			}
			if aa.Mode.Writes() || ba.Mode.Writes() || aa.Mode.Commutes() || ba.Mode.Commutes() {
				return false
			}
		}
	}
	return true
}

func dedupSorted(ids []TaskID) []TaskID {
	if len(ids) < 2 {
		return ids
	}
	// Insertion sort: dependency lists are short.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
