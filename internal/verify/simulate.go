package verify

import (
	"rio/internal/analyze"
	"rio/internal/stf"
)

// Pruning soundness (RIO-V006): a compiled stream may omit a foreign
// task's declares — §3.5 relevance pruning does — but only when the omission is *dominated*: every later wait on the
// affected data must observe local counters that a surviving op already
// re-established (most commonly a surviving declare_write, which resets
// the whole quadruple and thereby forgives everything elided before it).
//
// The check is exact, not structural: each worker's private counters are
// simulated over its stream with the very transition rules the runtime
// uses (declares and terminates mutate, waits only observe —
// core/data.go and the compiled interpreter in core/compiled.go), and at
// every get_* the simulated quadruple is compared against the reference
// pre-state the full flow implies. Agreement at every wait is
// precisely the condition under which the §3.5 argument goes through:
// the wait blocks until the same version of the data the sequential flow
// would hand the task. A counter left behind means the wait would admit
// a stale version (a dropped real dependency); a counter ahead means the
// wait could never be satisfied (a deadlocked stream). This is strictly
// more permissive than re-running the compiler's relevance analysis —
// any elision dominated by a later surviving write certifies clean — and
// strictly safe: it accepts no stream whose waits diverge from the flow.

// simCell mirrors core's localState for one (worker, data) pair.
type simCell struct {
	lastWrite                        int64
	nbReads, nbReds, nbRedsBeforeRun int64
}

func (s *simCell) declareRead() {
	s.nbReads++
	s.nbRedsBeforeRun = s.nbReds
}

func (s *simCell) declareWrite(task int64) {
	s.nbReads = 0
	s.lastWrite = task
	s.nbReds = 0
	s.nbRedsBeforeRun = 0
}

func (s *simCell) declareRed() { s.nbReds++ }

// simulate replays worker w's stream over simulated local counters and
// checks every wait against the reference. Waits that are present and
// agree are marked edge-usable for the happens-before pass.
func (c *certifier) simulate(w int) {
	local := make([]simCell, c.g.NumData)
	for i := range local {
		local[i].lastWrite = int64(stf.NoTask)
	}
	// One finding per (worker, data): the first divergent wait on a data
	// object makes every later wait on it divergent too.
	flagged := make([]bool, c.g.NumData)
	for _, in := range c.streams[w] {
		switch in.Op {
		case stf.OpDeclareRead, stf.OpTermRead:
			local[in.Data].declareRead()
		case stf.OpDeclareWrite, stf.OpTermWrite:
			local[in.Data].declareWrite(int64(in.Task))
		case stf.OpDeclareRed, stf.OpTermRed:
			local[in.Data].declareRed()
		case stf.OpGetRead, stf.OpGetWrite, stf.OpGetRed:
			c.checkWait(stf.WorkerID(w), in, &local[in.Data], flagged)
		}
	}
}

// checkWait compares the simulated counters at one get_* against the
// reference pre-state of the waiting task, field by field as the wait
// condition reads them (readReady/writeReady/redReady in core/data.go).
func (c *certifier) checkWait(w stf.WorkerID, in stf.Instr, l *simCell, flagged []bool) {
	t := &c.g.Tasks[in.Task]
	ai := accessIndex(t, in.Data)
	if ai < 0 {
		return // already RIO-V005: the graph has no such access
	}
	p := &c.pre[in.Task][ai]
	ok := false
	switch in.Op {
	case stf.OpGetRead:
		ok = l.lastWrite == p.lastWrite && l.nbReds == p.nbReds
	case stf.OpGetWrite:
		ok = l.lastWrite == p.lastWrite && l.nbReads == p.nbReads && l.nbReds == p.nbReds
	case stf.OpGetRed:
		ok = l.lastWrite == p.lastWrite && l.nbReads == p.nbReads && l.nbRedsBeforeRun == p.nbRedsBeforeRun
	}
	if ok {
		if c.edgeOK[in.Task] == nil {
			c.edgeOK[in.Task] = make([]bool, len(t.Accesses))
		}
		c.edgeOK[in.Task][ai] = true
		return
	}
	if flagged[in.Data] {
		return
	}
	flagged[in.Data] = true
	c.addf(analyze.CodeVerifyElision, t.ID, in.Data, w,
		"unsound elision: worker %d's %s for task %d would wait on version (write %d, %d reads, %d reds, %d before run) but the flow requires (write %d, %d reads, %d reds, %d before run) — a pruned declare on data %d is not dominated by a surviving op",
		w, in.Op, t.ID,
		l.lastWrite, l.nbReads, l.nbReds, l.nbRedsBeforeRun,
		p.lastWrite, p.nbReads, p.nbReds, p.nbRedsBeforeRun, in.Data)
}
