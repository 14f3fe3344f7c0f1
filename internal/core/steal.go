package core

// Bounded, dependency-safe work stealing (Options.Steal): the imbalance
// escape hatch of the hybrid execution model. See internal/stf/steal.go for
// the safety argument (flow-prefix counter snapshots prove readiness; a
// per-task atomic claim arbitrates the executor; the thief publishes the
// canonical terminate effects), and DESIGN.md §13 for the full proof.
//
// Candidates come from compiled steal metadata: stf.BuildStealMeta
// precomputed every task's owner and registered values, and a per-victim
// cursor walks each victim's owned tasks in flow order, always pointing at
// the victim's next unclaimed task. A replay without a compiled program
// (closure replay under a partial mapping, closure stream windows) carries
// no metadata and no steal state: its SharedWorker tasks already float.
//
// Steal attempts fire from two places: the slow phase of a dependency wait
// (the worker is provably not runnable locally) and the end-of-replay drain
// (the worker has nothing left of its own; it keeps stealing until every
// candidate is claimed or the run aborts). Both sites poll the abort latch.

import (
	"runtime"
	"time"

	"rio/internal/stf"
)

// stealState is one worker's stealing machinery, allocated only for
// replays that carry steal metadata — a nil-policy run pays a single
// pointer test per task and allocates nothing.
type stealState struct {
	scanBound int
	// victims is the resolved scan order: the policy's ranked list (self
	// excluded) or, when empty, every other worker in neighbor-ring order
	// starting after the thief.
	victims []stf.WorkerID

	// tasks and kernel are the current run's (or window's) task table and
	// dispatcher; cursors is per-victim (parallel to victims) and points
	// into meta.ByOwner.
	meta    *stf.StealMeta
	tasks   []stf.Task
	kernel  stf.Kernel
	cursors []int
}

// newStealState resolves a policy against this worker's identity. workers
// is the engine's worker count.
func newStealState(p *stf.StealPolicy, self stf.WorkerID, workers int) *stealState {
	st := &stealState{scanBound: p.ScanBound()}
	if len(p.Victims) > 0 {
		seen := make([]bool, workers)
		for _, v := range p.Victims {
			if v != self && v >= 0 && int(v) < workers && !seen[v] {
				st.victims = append(st.victims, v)
				seen[v] = true
			}
		}
	} else {
		for i := 1; i < workers; i++ {
			st.victims = append(st.victims, stf.WorkerID((int(self)+i)%workers))
		}
	}
	st.cursors = make([]int, len(st.victims))
	return st
}

// reset rearms the state for a new run or stream window. Steal state never
// survives an epoch boundary — the session resets it before each window
// and drains it before the window's barrier.
func (st *stealState) reset(meta *stf.StealMeta, tasks []stf.Task, kernel stf.Kernel) {
	st.meta, st.tasks, st.kernel = meta, tasks, kernel
	for i := range st.cursors {
		st.cursors[i] = 0
	}
}

// trySteal makes one bounded steal attempt and reports whether a task was
// claimed and executed (or claimed and failed — either way the caller's
// local picture changed and its wait condition is worth re-checking). It
// probes each victim's next unclaimed owned task (per-victim cursors over
// the compiled steal metadata), bounded by scanBound probes.
func (s *submitter) trySteal() bool {
	st := s.steal
	probed := 0
	for vi, v := range st.victims {
		if probed >= st.scanBound {
			return false
		}
		list := st.meta.ByOwner[v]
		cur := st.cursors[vi]
		for cur < len(list) && s.claims.claimed(int64(list[cur])) {
			cur++
		}
		st.cursors[vi] = cur
		if cur >= len(list) {
			continue
		}
		probed++
		idx := list[cur]
		if !s.stealReady(st.meta.Reqs[idx]) {
			continue
		}
		if !s.claims.tryClaim(int64(idx)) {
			st.cursors[vi] = cur + 1
			s.noteStealFailed()
			continue
		}
		st.cursors[vi] = cur + 1
		s.stealExec(v, &st.tasks[idx])
		return true
	}
	return false
}

// stealReady checks a candidate's registered values against the live shared
// cells — the same readiness predicate its owner's get_* calls would
// evaluate, valid from any worker because the values describe the flow, not
// the evaluator. Once true it stays true (see internal/stf/steal.go), so a
// subsequent claim cannot outrun the proof.
func (s *submitter) stealReady(reqs []stf.StealReq) bool {
	for i := range reqs {
		r := &reqs[i]
		sh := &s.shared[r.Data]
		if !r.Ready(sh.lastExecutedWrite.Load(), sh.nbReadsSinceWrite.Load(), sh.nbRedsSinceWrite.Load()) {
			return false
		}
	}
	return true
}

// stealExec runs a task this worker just claimed from owner. The lifecycle
// is exec's, like any task's; the completion publication differs — the
// thief performs shared-only terminates (releaseStolen), because its *own*
// replay declares the task separately at its flow position, which it may
// or may not have reached yet: the private bookkeeping belongs to the
// replay, not to the execution. A terminal failure leaves completion
// unpublished.
func (s *submitter) stealExec(owner stf.WorkerID, t *stf.Task) {
	if h := s.hooks; h != nil && h.OnTaskSteal != nil {
		h.OnTaskSteal(s.worker, owner, t.ID)
	}
	if !s.exec(t.ID, t.Accesses, body{t: t, k: s.steal.kernel}) {
		return
	}
	s.releaseStolen(t.Accesses, int64(t.ID))
	s.ws.Stolen++
	s.prog.StoreStolen(s.ws.Stolen)
}

// releaseStolen publishes a stolen task's completion to the shared cells:
// the terminate_* protocol minus the local declare (see stealExec). The
// published values are the task's own — terminate_write stores the task's
// ID — so downstream waiters observe exactly what the owner would have
// published: the canonical order is preserved regardless of the executor.
func (s *submitter) releaseStolen(accesses []stf.Access, id int64) {
	for _, a := range accesses {
		sh := &s.shared[a.Data]
		switch {
		case a.Mode.Writes():
			sh.nbReadsSinceWrite.Store(0)
			sh.nbRedsSinceWrite.Store(0)
			sh.lastExecutedWrite.Store(id)
			sh.wake()
		case a.Mode.Commutes():
			sh.nbRedsSinceWrite.Add(1)
			sh.wake()
		default:
			sh.nbReadsSinceWrite.Add(1)
			sh.wake()
		}
	}
}

func (s *submitter) noteStealFailed() {
	s.ws.StealFailed++
	s.prog.StoreStealFailed(s.ws.StealFailed)
}

// stealDrain keeps stealing after this worker's replay finished, until
// every candidate it can see is claimed (each is then executed by its
// claimant, whose own replay or drain has not finished) or the run aborts.
// This is what lets a skewed mapping approach max(critical path, n/p): the
// owners of nothing sit in drain and eat the hot worker's backlog. The
// drain precedes a stream window's barrier arrival, so no steal ever
// crosses an epoch boundary.
func (s *submitter) stealDrain() {
	idle := 0
	for s.err == nil {
		if s.abort.raised() {
			return
		}
		if s.stealDrained() {
			return
		}
		if s.trySteal() {
			idle = 0
			continue
		}
		idle++
		if idle < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// stealDrained reports whether no stealable work remains in this worker's
// view: every victim cursor is past its victim's last unclaimed task.
func (s *submitter) stealDrained() bool {
	st := s.steal
	for vi, v := range st.victims {
		list := st.meta.ByOwner[v]
		cur := st.cursors[vi]
		for cur < len(list) && s.claims.claimed(int64(list[cur])) {
			cur++
		}
		st.cursors[vi] = cur
		if cur < len(list) {
			return false
		}
	}
	return true
}
