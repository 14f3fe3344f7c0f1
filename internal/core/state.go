package core

import (
	"sync/atomic"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// runState is the scaffold a one-shot run or a streaming session replays
// on: the §3.4 per-data shared cells, every worker's local mirrors, one
// submitter per worker with its park timer and, on an armed engine, its
// steal state, and the run's claim table and abort latch. The paper sets
// this state up once; an engine does too, in the sense that matters: a run
// borrows it from the engine's pool (Engine.borrow) and gives it back when
// it is provably unreachable (Engine.giveBack). Idle is the zero value
// throughout, so a borrowed state resets by clearing the prefix the run
// uses.
type runState struct {
	// shared holds the data capacity of the state; a run over numData data
	// uses shared[:numData].
	shared []sharedState
	arena  localArena
	subs   []*submitter
	claims claimTable
	abort  abortState

	// The plumbing of the run or stream window in flight (launch): flow is
	// what every worker replays; live counts the workers still replaying,
	// and the last one out closes done.
	flow flow
	live atomic.Int32
	done chan struct{}
}

// newRunState allocates an idle state for numData data objects.
func (e *Engine) newRunState(numData int) *runState {
	st := &runState{
		shared: make([]sharedState, numData),
		arena:  newLocalArena(e.workers, numData),
		subs:   make([]*submitter, e.workers),
	}
	for w := range st.subs {
		st.subs[w] = &submitter{}
		if e.steal != nil {
			st.subs[w].thief = newStealState(e.steal, stf.WorkerID(w), e.workers)
		}
	}
	return st
}

// borrow hands a one-shot run (execute) or a streaming session (OpenSession)
// the state it replays on over numData data objects: a pooled one when its
// capacity covers numData — every word the run can reach reset to idle —
// else a fresh one. The submitters come wired to the state, the engine's
// policies and one snapshot of its mapping (every worker must resolve
// ownership identically even if SetMapping races the start); execute adds
// the per-run checkpoint, guard and watchdog wiring.
func (e *Engine) borrow(numData int, rp *trace.ProgressTable, spinBudget int) *runState {
	st, _ := e.states.Get().(*runState)
	if st == nil || len(st.shared) < numData {
		st = e.newRunState(numData)
	} else {
		clear(st.shared[:numData])
		st.arena.reset(numData)
		st.claims.reset()
	}
	shared := st.shared[:numData]
	st.abort = abortState{shared: shared}
	mapping := *e.mapping.Load()
	for w, s := range st.subs {
		*s = submitter{
			eng:        e,
			worker:     stf.WorkerID(w),
			mapping:    mapping,
			shared:     shared,
			local:      st.arena.worker(w),
			claims:     &st.claims,
			abort:      &st.abort,
			prog:       rp.Worker(w),
			hooks:      e.hooks,
			retry:      e.retry,
			snaps:      e.snaps,
			thief:      s.thief,
			spinBudget: spinBudget,
			parkTimer:  s.parkTimer,
		}
	}
	if e.borrowed != nil {
		e.borrowed(st, numData)
	}
	return st
}

// giveBack returns st to the engine's pool, keeping only what the next
// borrower reuses: the cells, the arena, the claim pages, the steal states
// and the park timers — nothing of the caller's flow. The caller must have
// joined every goroutine that can touch st: the workers and, for a run, the
// watchdog monitor and the cancel callback; for a session, the window
// timers. The pool then hands st to one run at a time. A state that cannot
// be proven unreachable — an abandoned run's — is never given back.
func (e *Engine) giveBack(st *runState) {
	st.flow, st.done = flow{}, nil
	for _, s := range st.subs {
		*s = submitter{thief: s.thief, parkTimer: s.parkTimer}
		if s.thief != nil {
			s.thief.flow = nil
		}
	}
	e.states.Put(st)
}

// launch starts the p worker goroutines of a one-shot run (execute) or a
// stream window (Session.Flush) — the only place they start: each replays
// f against its submitter, and the caller joins them all on <-st.done.
func (st *runState) launch(f flow) {
	st.flow = f
	st.done = make(chan struct{})
	st.live.Store(int32(len(st.subs)))
	for _, s := range st.subs {
		go st.work(s)
	}
}

// work is one worker goroutine: replay the flow (replay recovers a
// panicking body), store the worker's times in its cell and leave; the last
// worker out closes done.
func (st *runState) work(s *submitter) {
	t0 := time.Now()
	s.replay(&st.flow)
	s.prog.Exit(s.task, s.idle, time.Since(t0))
	if st.live.Add(-1) == 0 {
		close(st.done)
	}
}
