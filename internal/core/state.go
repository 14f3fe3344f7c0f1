package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"weak"

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

	// The cancel callback of a run in flight (execute): ctx is the run's
	// context, onCancel the callback context.AfterFunc calls on it (the
	// method value cancel, made once with the state) and cancelJoin what
	// execute joins it through.
	ctx        context.Context
	onCancel   func()
	cancelJoin sync.WaitGroup

	// idle is set when the state is given back and won by the borrow that
	// takes it (Engine.takeIdle); handle is the state's weak reference to
	// itself, allocated once, which giveBack leaves in Engine.lastIdle.
	idle   atomic.Bool
	handle *weak.Pointer[runState]
}

// newRunState allocates an idle state for numData data objects.
func (e *Engine) newRunState(numData int) *runState {
	st := &runState{
		shared: make([]sharedState, numData),
		arena:  newLocalArena(e.workers, numData),
		subs:   make([]*submitter, e.workers),
	}
	st.handle = new(weak.Pointer[runState])
	*st.handle = weak.Make(st)
	st.onCancel = st.cancel
	for w := range st.subs {
		st.subs[w] = &submitter{}
		if e.steal != nil {
			st.subs[w].thief = newStealState(e.steal, stf.WorkerID(w), e.workers)
		}
	}
	return st
}

// borrow hands a one-shot run (execute) or a streaming session (OpenSession)
// the state it replays on over numData data objects: an idle one
// (takeIdle) when its capacity covers numData — every word the run can reach reset
// to idle — else a fresh one. A run that reads no cell (a bare program,
// flow.bare) borrows over no data: it takes any idle state and clears none
// of its cells or local mirrors, which the next run that reads them clears
// for itself. The first width submitters, those of the run's workers,
// come wired to the state, the engine's policies, their cells of rp and one
// snapshot of its mapping (every worker must resolve ownership identically
// even if SetMapping races the start); execute adds the per-run guard. A
// narrow run (width < p) leaves the others idle.
func (e *Engine) borrow(numData, width int, rp *trace.ProgressTable, spinBudget int) *runState {
	st := e.takeIdle()
	if st == nil || len(st.shared) < numData {
		st = e.newRunState(numData)
	} else {
		if numData > 0 {
			clear(st.shared[:numData])
			st.arena.reset(numData)
		}
		st.claims.reset()
	}
	shared := st.shared[:numData]
	st.abort = abortState{shared: shared}
	mapping := *e.mapping.Load()
	for w, s := range st.subs[:width] {
		*s = submitter{
			eng:        e,
			worker:     stf.WorkerID(w),
			mapping:    mapping,
			shared:     shared,
			local:      st.arena.worker(w)[:numData],
			claims:     &st.claims,
			abort:      &st.abort,
			prog:       rp.Worker(w),
			hooks:      e.hooks,
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
// cancel callback; for a session, the window timers. takeIdle then hands st
// to one run at a time.
func (e *Engine) giveBack(st *runState) {
	st.flow, st.done, st.ctx = flow{}, nil, nil
	for _, s := range st.subs {
		*s = submitter{thief: s.thief, parkTimer: s.parkTimer}
		if s.thief != nil {
			s.thief.flow = nil
		}
	}
	st.idle.Store(true)
	e.lastIdle.Store(st.handle)
	e.states.Put(st)
}

// cancel is the run's cancel callback: it aborts the run with its
// context's cause.
func (st *runState) cancel() {
	defer st.cancelJoin.Done()
	st.abort.raise(fmt.Errorf("core: run canceled: %w", context.Cause(st.ctx)), true)
}

// takeIdle takes an idle state for borrow, or returns nil: a pooled one or,
// when the pool has none for the caller's P, the one given back last if it
// is still idle. A sync.Pool slot belongs to the P its Put ran on, and a
// caller that replays worker 0 never parks, so it can be preempted onto
// another P between one run's giveBack and the next run's borrow; the weak
// reference still finds the state there, and keeps no idle engine's state
// from the collector. The pool may thus still hold a state a borrow took
// that way: winning idle is what makes a state the borrower's, and a pooled
// reference to one that is not idle is dropped.
func (e *Engine) takeIdle() *runState {
	for {
		st, _ := e.states.Get().(*runState)
		if st == nil {
			break
		}
		if st.idle.CompareAndSwap(true, false) {
			return st
		}
	}
	if h := e.lastIdle.Load(); h != nil {
		if st := h.Value(); st != nil && st.idle.CompareAndSwap(true, false) {
			return st
		}
	}
	return nil
}

// launch starts the first w workers of a one-shot run (execute) or a
// stream window (Session.Flush) — the only place they start: each replays
// f against its submitter, and the caller joins them all on <-st.done. With
// inline set the caller is worker 0: launch spawns the other w−1, replays
// worker 0's share on the calling goroutine and returns once it has (the
// others may still be running). Without it, every worker gets a goroutine
// and launch returns at once.
func (st *runState) launch(f flow, w int, inline bool) {
	st.flow = f
	st.done = make(chan struct{})
	st.live.Store(int32(w))
	first := 0
	if inline {
		first = 1
	}
	for _, s := range st.subs[first:w] {
		go st.work(s)
	}
	if inline {
		st.work(st.subs[0])
	}
}

// work is one worker, on its own goroutine or on the caller's: replay the
// flow (replay recovers a panicking body), store the worker's times in its
// cell and leave; the last worker out closes done.
func (st *runState) work(s *submitter) {
	t0 := time.Now()
	s.replay(&st.flow)
	s.prog.Exit(s.task, s.idle, time.Since(t0))
	if st.live.Add(-1) == 0 {
		close(st.done)
	}
}
