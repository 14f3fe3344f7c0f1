package core

// Bounded, dependency-safe work stealing (Options.Steal): the imbalance
// escape hatch of the hybrid execution model. See internal/stf/steal.go for
// the safety argument (flow-prefix counter snapshots prove readiness; a
// per-task atomic claim arbitrates the executor; the thief publishes the
// canonical terminate effects), and DESIGN.md §13 for the full proof.
//
// Candidates come from the compiled program's steal metadata
// (stf.CompiledProgram.StealMeta): every task's owner and registered values
// are precomputed, and a per-victim cursor walks each victim's owned tasks
// in flow order, always pointing at the victim's next unclaimed task. A
// replay without a compiled program (closure replay under a partial
// mapping, closure stream windows) carries no metadata and is not armed:
// its SharedWorker tasks already float.
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

// stealState is one worker's stealing machinery, allocated with the run
// state of an armed engine only (newRunState) and pooled with it — a
// nil-policy engine allocates nothing. The worker's own part is cursors; the
// tables they point into belong to the flow's program.
type stealState struct {
	scanBound int
	// victims is the resolved scan order: the policy's ranked list (self
	// excluded) or, when empty, every other worker in neighbor-ring order
	// starting after the thief.
	victims []stf.WorkerID

	// flow is the armed flow being replayed (steal metadata, task table,
	// kernel); cursors, parallel to victims, point into flow.meta.ByOwner.
	// submitter.replay rearms both per flow and drains before returning:
	// no steal state survives the run or window it was armed for.
	flow    *flow
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
	// A cache line of its own: a worker rewrites its cursors at every probe,
	// and the workers' states are allocated back to back.
	st.cursors = make([]int, len(st.victims), max(len(st.victims), cacheLine/8))
	return st
}

// nextCandidate advances victim vi's cursor over list, the victim's owned
// tasks in flow order, to its next unclaimed task (len(list) when there is
// none) and returns the cursor.
func (s *submitter) nextCandidate(vi int, list []int32) int {
	cur := s.steal.cursors[vi]
	for cur < len(list) && s.claims.claimed(int64(list[cur])) {
		cur++
	}
	s.steal.cursors[vi] = cur
	return cur
}

// trySteal makes one bounded steal attempt and reports whether a task was
// claimed and executed (or claimed and failed — either way the caller's
// local picture changed and its wait condition is worth re-checking). It
// probes each victim's next unclaimed owned task (per-victim cursors over
// the compiled steal metadata), bounded by scanBound probes.
func (s *submitter) trySteal() bool {
	st, meta := s.steal, s.steal.flow.meta
	probed := 0
	for vi, v := range st.victims {
		if probed >= st.scanBound {
			return false
		}
		list := meta.ByOwner[v]
		cur := s.nextCandidate(vi, list)
		if cur >= len(list) {
			continue
		}
		probed++
		idx := list[cur]
		if !s.stealReady(meta.Reqs[idx]) {
			continue
		}
		st.cursors[vi] = cur + 1 // claimed below, by this worker or another
		if !s.claims.tryClaim(int64(idx)) {
			s.prog.CountStealFailed()
			continue
		}
		s.stealExec(v, &st.flow.tasks[idx])
		return true
	}
	return false
}

// stealReady checks a candidate's registered values against the live shared
// cells — the same readiness predicate its owner's get_* calls would
// evaluate, valid from any worker because the values describe the flow, not
// the evaluator. Once true it stays true (see internal/stf/steal.go), so a
// subsequent claim cannot outrun the proof. The requirements speak task IDs
// (stf.NoTask for "no write"), the cells id+1: this is the one place that
// decodes.
func (s *submitter) stealReady(reqs []stf.StealReq) bool {
	for i := range reqs {
		r := &reqs[i]
		sh := &s.shared[r.Data]
		if !r.Ready(sh.lastExecutedWrite.Load()-1, sh.nbReadsSinceWrite.Load(), sh.nbRedsSinceWrite.Load()) {
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
	if !s.exec(t.ID, t.Accesses, body{t: t, k: s.steal.flow.kernel}) {
		return
	}
	s.prog.Publish() // a steal returns to a wait or the drain
	s.releaseStolen(t.Accesses, int64(t.ID))
	s.prog.CountStolen()
}

// releaseStolen publishes a stolen task's completion to the shared cells:
// the terminate_* protocol minus the local declare (see stealExec). The
// published values are the task's own — terminate_write stores the task's
// ID, as id+1 — so downstream waiters observe exactly what the owner would
// have published: the canonical order is preserved regardless of the
// executor.
func (s *submitter) releaseStolen(accesses []stf.Access, id int64) {
	for _, a := range accesses {
		sh := &s.shared[a.Data]
		switch {
		case a.Mode.Writes():
			sh.nbReadsSinceWrite.Store(0)
			sh.nbRedsSinceWrite.Store(0)
			sh.lastExecutedWrite.Store(id + 1)
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

// stealDrain keeps stealing after this worker's replay finished, until
// every candidate it can see is claimed (each is then executed by its
// claimant, whose own replay or drain has not finished) or the run aborts.
// This is what lets a skewed mapping approach max(critical path, n/p): the
// owners of nothing sit in drain and eat the hot worker's backlog. The
// drain precedes the worker's exit, so no steal of a stream window outlives
// the window.
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
	for vi, v := range s.steal.victims {
		if list := s.steal.flow.meta.ByOwner[v]; s.nextCandidate(vi, list) < len(list) {
			return false
		}
	}
	return true
}
