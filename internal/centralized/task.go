// Package centralized implements the baseline execution model the paper
// compares against (§2.2): a *centralized, out-of-order* STF runtime in the
// style of StarPU, OmpSs or OpenMP tasking. A master thread unrolls the
// task flow, derives dependencies from access modes, and dispatches ready
// tasks to a pool of workers through one FIFO ready queue; workers may pick
// tasks in any dependency-respecting order (out-of-order execution). The
// dispatch policy is deliberately the simplest: eq. (1) prices the
// execution-model class by the master's per-task cost, and no queue policy
// appears in it.
//
// The structural costs of this model are the ones the paper attributes the
// fine-granularity collapse to: one task object allocated and tracked per
// task, centralized consistency management on the master, and queue traffic
// between master and workers (cost model eq. (1): t_p = max(n·t_r, n·t_t/w)
// — the master becomes the bottleneck when tasks get small).
package centralized

import (
	"sync"
	"sync/atomic"

	"rio/internal/stf"
)

// task is the runtime representation of one submitted task. Unlike the
// decentralized engine — which stores nothing per task — the centralized
// model must materialize every task until it has executed.
type task struct {
	id stf.TaskID

	// Exactly one of fn / (rec, kern) is set.
	fn   stf.TaskFunc
	rec  *stf.Task
	kern stf.Kernel

	// reds lists the data objects this task accesses in Reduction mode,
	// sorted ascending; the executing worker takes the corresponding
	// per-data mutexes around the task body (commuting reductions run in
	// any order but must not overlap).
	reds []stf.DataID

	// pending counts unresolved predecessors plus one submission guard;
	// the task becomes ready when it reaches zero.
	pending atomic.Int32

	mu    sync.Mutex
	done  bool
	succs []*task
}

// run executes the task body on worker w.
func (t *task) run(w stf.WorkerID) {
	if t.rec != nil {
		t.kern(t.rec, w)
		return
	}
	t.fn()
}

// addSuccessor registers s as depending on t. It returns false when t has
// already completed, in which case the dependency is already satisfied and
// must not be counted. The per-task lock closes the race between the master
// deriving dependencies and a worker completing t concurrently.
func (t *task) addSuccessor(s *task) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.succs = append(t.succs, s)
	return true
}

// complete marks t done and returns the successors to release.
func (t *task) complete() []*task {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = true
	s := t.succs
	t.succs = nil
	return s
}

// depState is the master's per-data dependency-derivation state: the last
// task that wrote the data, the readers that accessed it since, and the
// open/closed commutative-reduction runs. This is the centralized
// counterpart of RIO's distributed counters; only the master touches it, so
// no synchronization is needed here — the point is that *all* tasks must
// flow through this single thread.
type depState struct {
	lastWriter *task
	readers    []*task
	openRun    []*task
	closedRun  []*task
}

// wire registers the predecessor edges of t implied by its accesses,
// updating the per-data state and t's pending count. The rules mirror
// stf.(*Graph).Dependencies including the reduction-run semantics.
//
// Ordering matters: the pending count is incremented *before* the edge is
// registered, so a predecessor completing concurrently (and decrementing
// pending through the just-registered edge) can never observe a count that
// is missing its own increment — otherwise the submission guard alone
// could hit zero and the task would be dispatched twice.
func wire(states []depState, t *task, accesses []stf.Access) {
	dep := func(p *task) {
		t.pending.Add(1)
		if !p.addSuccessor(t) {
			// The predecessor had already completed; the dependency
			// is satisfied and the provisional increment comes back.
			t.pending.Add(-1)
		}
	}
	depAll := func(ps []*task) {
		for _, p := range ps {
			dep(p)
		}
	}
	for _, a := range accesses {
		st := &states[a.Data]
		switch {
		case a.Mode.Writes():
			if len(st.readers)+len(st.openRun) > 0 {
				depAll(st.readers)
				depAll(st.openRun)
			} else if st.lastWriter != nil {
				dep(st.lastWriter)
			}
			st.lastWriter = t
			st.readers = st.readers[:0]
			st.openRun = nil
			st.closedRun = nil
		case a.Mode.Commutes():
			if len(st.readers) > 0 {
				depAll(st.readers)
			} else if st.lastWriter != nil {
				dep(st.lastWriter)
			}
			st.openRun = append(st.openRun, t)
		default: // read
			switch {
			case len(st.openRun) > 0:
				depAll(st.openRun)
			case len(st.closedRun) > 0:
				depAll(st.closedRun)
			case st.lastWriter != nil:
				dep(st.lastWriter)
			}
			if len(st.openRun) > 0 {
				st.closedRun = st.openRun
				st.openRun = nil
			}
			st.readers = append(st.readers, t)
		}
	}
}
