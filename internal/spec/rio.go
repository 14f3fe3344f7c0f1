package spec

// The Run-In-Order module (paper Appendix B.2): compared to STF, two
// constraints are added — the worker responsible for a task is fixed by the
// Mapping, and each worker executes its attributed tasks in task-flow
// order. The module is checked to *implement* the STF specification: every
// reachable RIO state projects onto a reachable STF state and every
// ExecuteTask step satisfies the STF readiness predicate, so sequential
// consistency, data-race freedom and termination carry over.

// rioState is one state of the Run-In-Order transition system: how far
// each worker has advanced into its own (mapped, ordered) task list, and
// which task it is currently executing.
type rioState struct {
	pos    [MaxWorkers]uint8
	active [MaxWorkers]int8
}

func (m *Model) rioInit() rioState {
	var s rioState
	for w := range s.active {
		s.active[w] = idle
	}
	return s
}

// rioTerminated computes the terminated-task bitset of a state: everything
// each worker has passed, minus what is still being executed.
func (m *Model) rioTerminated(s rioState) uint64 {
	var started uint64
	for w := 0; w < m.workers; w++ {
		started |= m.ownedPrefix[w][s.pos[w]]
	}
	activeBits, _ := m.activeBits(&s.active)
	return started &^ activeBits
}

// project maps a RIO state onto the corresponding STF state (pending = not
// yet started, same active registers).
func (m *Model) project(s rioState) stfState {
	var started uint64
	for w := 0; w < m.workers; w++ {
		started |= m.ownedPrefix[w][s.pos[w]]
	}
	return stfState{pending: m.all &^ started, active: s.active}
}

// RIOOptions tweak the Run-In-Order checker; the mutations exist so tests
// can confirm the checker actually catches broken execution models.
type RIOOptions struct {
	// SkipReadBlockers unsoundly lets a writer start while earlier
	// readers are still pending/active (dropping the get_write read-count
	// wait of Algorithm 2) — used as a negative control: checking a model
	// with this mutation must FAIL on task flows with read-then-write
	// patterns.
	SkipReadBlockers bool
	// SkipRefinement disables the (more expensive) STF-reachability
	// refinement check and verifies only the direct invariants.
	SkipRefinement bool
	// Retry adds the fault-tolerance rollback transition: an active task
	// may fail, roll its write-set back and return the worker to the
	// pre-attempt position (active → idle, pos decremented) so it can be
	// re-executed. Checking with Retry confirms that rollback+re-execute
	// preserves every invariant — each post-rollback state projects onto a
	// reachable STF state and re-execution is ready under STF rules — i.e.
	// retried runs stay sequentially consistent.
	Retry bool
	// Steal adds the work-stealing transition of Options.Steal: an idle
	// worker (the thief) may execute the *next* unexecuted task of any
	// other worker (the victim) when the task is ready, advancing the
	// victim's position — the model-level image of the claim-table CAS:
	// the owner skips a claimed slot as if it had run the task, the thief
	// holds it in its execution register. Checking with Steal confirms the
	// hybrid model still refines STF: every state with a foreign task in
	// flight projects onto a reachable STF state, and a stolen step obeys
	// the same readiness predicate as an in-order one.
	Steal bool
	// UnsafeSteal is a negative control for the steal transition: thieves
	// use a readiness rule that ignores earlier readers (a StealReq.Ready
	// that dropped the read-count comparison). Checking a model with this
	// mutation must FAIL on task flows with read-then-write patterns —
	// proof that the refinement step check covers stolen executions too.
	// Implies Steal.
	UnsafeSteal bool
}

// rioNext is the Run-In-Order next-state relation under one RIOOptions:
// the one CheckRIO explores and SampleRIO walks.
type rioNext struct {
	m *Model
	// blockers decides an in-order step, stealBlockers a stolen one; the
	// mutations of RIOOptions swap in unsoundBlockers.
	blockers, stealBlockers []uint64
	retry, steal            bool
}

func (m *Model) rioNext(opts RIOOptions) *rioNext {
	r := &rioNext{m: m, blockers: m.blockers, retry: opts.Retry, steal: opts.Steal || opts.UnsafeSteal}
	if opts.SkipReadBlockers {
		r.blockers = m.unsoundBlockers()
	}
	r.stealBlockers = r.blockers
	if opts.UnsafeSteal {
		r.stealBlockers = m.unsoundBlockers()
	}
	return r
}

// successors appends every successor of s, whose terminated set is given,
// to buf. A busy worker finishes its task or, with Retry, rolls it back; an
// idle worker has at most one in-order candidate, the *first* unexecuted
// task of its own list, and with Steal may take any other worker's next
// one. Every step is checked against the STF readiness predicate — the step
// part of refinement — and a step the relation allows but STF does not is
// recorded in res under the checker's name.
func (r *rioNext) successors(s rioState, terminated uint64, buf []rioState, res *Result, checker string) []rioState {
	m := r.m
	for w := 0; w < m.workers; w++ {
		if s.active[w] != idle {
			n := s
			n.active[w] = idle
			buf = append(buf, n)
			if r.retry {
				// Rollback: the attempt fails, the write-set is
				// restored, and the worker stands before the same task
				// again. The restored state must be (and is) a previously
				// reachable one — the model has no memory of the failed
				// attempt, which is exactly the write-set-rollback
				// guarantee. Only a task from the worker's own queue rolls
				// back to a queue position; a *stolen* task is retried in
				// place by the thief (write-set restore, same executor),
				// which is a model stutter — no transition.
				if p := int(s.pos[w]); p > 0 && m.owned[w][p-1] == s.active[w] {
					n.pos[w]--
					buf = append(buf, n)
				}
			}
			continue
		}
		p := int(s.pos[w])
		if p >= len(m.owned[w]) {
			continue
		}
		t := int(m.owned[w][p])
		if r.blockers[t]&^terminated != 0 {
			continue
		}
		if !m.taskReady(t, terminated) {
			res.violate("%s: step executes task %d not ready under STF semantics", checker, t)
		}
		n := s
		n.pos[w] = uint8(p + 1)
		n.active[w] = int8(t)
		buf = append(buf, n)
	}
	if !r.steal {
		return buf
	}
	// Steal transitions: an idle thief takes any victim's next unexecuted
	// task if it is ready. The victim's position advances (the owner will
	// skip the claimed slot, declaring as if it had run the task) while the
	// task executes in the thief's register — so the race and refinement
	// invariants inspect exactly the states the hybrid engine can reach.
	for w := 0; w < m.workers; w++ {
		if s.active[w] != idle {
			continue
		}
		for v := 0; v < m.workers; v++ {
			if v == w {
				continue
			}
			p := int(s.pos[v])
			if p >= len(m.owned[v]) {
				continue
			}
			t := int(m.owned[v][p])
			if r.stealBlockers[t]&^terminated != 0 {
				continue
			}
			if !m.taskReady(t, terminated) {
				res.violate("%s: steal executes task %d not ready under STF semantics", checker, t)
			}
			n := s
			n.pos[v] = uint8(p + 1)
			n.active[w] = int8(t)
			buf = append(buf, n)
		}
	}
	return buf
}

// CheckRIO exhaustively explores the Run-In-Order model, verifying
// data-race freedom, deadlock-freedom (hence, with fairness, termination)
// and refinement of the STF specification.
func (m *Model) CheckRIO(opts RIOOptions) *Result {
	if m.mapping == nil {
		res := &Result{}
		res.violate("RIO: model has no mapping")
		return res
	}
	res := &Result{}
	rel := m.rioNext(opts)

	var stfStates map[stfState]struct{}
	if !opts.SkipRefinement {
		stfStates = m.stfReachable()
	}

	init := m.rioInit()
	seen := map[rioState]struct{}{init: {}}
	frontier := []rioState{init}
	res.Distinct = 1
	terminatedReachable := false
	var buf []rioState
	for len(frontier) > 0 {
		var next []rioState
		for _, s := range frontier {
			activeBits, race := m.activeBits(&s.active)
			if race {
				res.violate("RIO: data race in state pos=%v active=%v", s.pos, s.active)
			}
			if !opts.SkipRefinement {
				if _, ok := stfStates[m.project(s)]; !ok {
					res.violate("RIO: state pos=%v active=%v projects outside the STF state space", s.pos, s.active)
				}
			}
			terminated := m.rioTerminated(s)
			done := activeBits == 0 && terminated == m.all
			if done {
				terminatedReachable = true
				continue
			}
			buf = rel.successors(s, terminated, buf[:0], res, "RIO")
			res.Generated += int64(len(buf))
			if len(buf) == 0 {
				res.violate("RIO: deadlock in state pos=%v active=%v", s.pos, s.active)
			}
			for _, n := range buf {
				if _, ok := seen[n]; ok {
					continue
				}
				seen[n] = struct{}{}
				res.Distinct++
				next = append(next, n)
			}
		}
		frontier = next
		if len(frontier) > 0 {
			res.Depth++
		}
	}
	if !terminatedReachable {
		res.violate("RIO: Terminated state unreachable")
	}
	return res
}

// unsoundBlockers drops read→write ordering: a writer no longer waits for
// earlier readers (only for earlier writers). Mirrors omitting lines 19–20
// of Algorithm 2.
func (m *Model) unsoundBlockers() []uint64 {
	n := len(m.graph.Tasks)
	out := make([]uint64, n)
	for t := 0; t < n; t++ {
		for u := 0; u < t; u++ {
			if m.blocksUnsound(u, t) {
				out[t] |= 1 << uint(u)
			}
		}
	}
	return out
}

func (m *Model) blocksUnsound(u, t int) bool {
	for _, at := range m.graph.Tasks[t].Accesses {
		for _, au := range m.graph.Tasks[u].Accesses {
			if at.Data != au.Data {
				continue
			}
			if au.Mode.Writes() {
				return true // reads and writes still wait for earlier writes
			}
			// earlier read, t writes: unsoundly ignored
		}
	}
	return false
}
