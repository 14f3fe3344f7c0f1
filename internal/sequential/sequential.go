// Package sequential implements the trivial STF execution model: run every
// task inline, in task-flow order, on the calling goroutine. It is
// semantically the reference implementation — the STF sequential-consistency
// guarantee says every valid parallel execution must produce the same
// result as this one — and it provides the t(g) measurements of the
// efficiency decomposition (paper §2.3).
package sequential

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// Engine executes STF programs sequentially. The zero value is not usable;
// use New.
type Engine struct {
	noAcct bool
	hooks  *stf.Hooks
	// LastRun holds the run record Stats and Progress read: a single
	// worker cell whose wait histogram is always empty (the sequential
	// engine never blocks on a dependency).
	trace.LastRun
}

// Options configures a sequential engine.
type Options struct {
	// NoAccounting disables per-task time-stamping.
	NoAccounting bool
	// Hooks optionally installs lifecycle callbacks (see stf.Hooks). The
	// sequential engine never waits, so the wait hooks never fire.
	Hooks *stf.Hooks
}

// New returns a sequential engine.
func New(o Options) *Engine {
	return &Engine{noAcct: o.NoAccounting, hooks: o.Hooks}
}

// Name identifies the execution model in reports.
func (e *Engine) Name() string { return "sequential" }

// NumWorkers returns 1.
func (e *Engine) NumWorkers() int { return 1 }

// Run executes prog, running each submitted task immediately.
func (e *Engine) Run(numData int, prog stf.Program) error {
	return e.RunContext(context.Background(), numData, prog)
}

// RunContext is Run with cancellation: the cancellation flag is checked
// before each task, so a canceled run stops at the next task boundary and
// returns an error wrapping ctx's cause (the task already executing runs
// to completion — cancellation is cooperative).
func (e *Engine) RunContext(ctx context.Context, numData int, prog stf.Program) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sequential: run not started: %w", context.Cause(ctx))
	}
	if numData < 0 {
		return errors.New("sequential: negative numData")
	}
	rp := e.Begin(1)
	if h := e.hooks; h != nil && h.OnRunStart != nil {
		h.OnRunStart(1, numData)
	}
	s := &submitter{noAcct: e.noAcct, hooks: e.hooks, prog: rp.Worker(0)}
	if ctx.Done() != nil {
		s.ctx = ctx
	}
	t0 := time.Now()
	prog(s)
	wall := time.Since(t0)
	s.prog.Exit(s.task, 0, wall)
	e.End(wall, !e.noAcct)
	if h := e.hooks; h != nil && h.OnRunEnd != nil {
		h.OnRunEnd(s.err)
	}
	return s.err
}

type submitter struct {
	next   stf.TaskID
	noAcct bool
	ctx    context.Context // non-nil only for cancelable runs
	hooks  *stf.Hooks
	prog   *trace.ProgressCell // the run record (Progress, Stats)
	task   time.Duration       // accounted body time, stored in the cell at the end
	err    error
}

// Worker implements stf.Submitter; the sequential executor is its own
// master.
func (s *submitter) Worker() stf.WorkerID { return stf.MasterWorker }

// NumWorkers implements stf.Submitter.
func (s *submitter) NumWorkers() int { return 1 }

// Submit implements stf.Submitter: the task runs before Submit returns.
func (s *submitter) Submit(fn stf.TaskFunc, accesses ...stf.Access) stf.TaskID {
	id := s.next
	s.next++
	s.run(fn)
	return id
}

// SubmitTask implements stf.Submitter for recorded tasks.
func (s *submitter) SubmitTask(t *stf.Task, k stf.Kernel) stf.TaskID {
	if t.ID < s.next {
		if s.err == nil {
			s.err = fmt.Errorf("sequential: task ID %d submitted after ID %d", t.ID, s.next-1)
		}
		return t.ID
	}
	s.next = t.ID + 1
	s.run(func() { k(t, stf.MasterWorker) })
	return t.ID
}

func (s *submitter) run(f func()) {
	if s.err != nil {
		return
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		s.err = fmt.Errorf("sequential: run canceled: %w", context.Cause(s.ctx))
		return
	}
	id := s.next - 1
	s.prog.SetCurrent(id)
	if h := s.hooks; h != nil && h.OnTaskStart != nil {
		h.OnTaskStart(stf.MasterWorker, id)
	}
	// A failing task fails the run but does not unwind the caller (Submit
	// keeps its documented return-after-execution contract); subsequent
	// tasks are skipped via the sticky error. The failure skips OnTaskEnd
	// and leaves Current parked on the failed task, matching the parallel
	// engines' contract.
	if s.err = s.attempt(id, f); s.err != nil {
		return
	}
	if h := s.hooks; h != nil && h.OnTaskEnd != nil {
		h.OnTaskEnd(stf.MasterWorker, id)
	}
	s.prog.SetCurrent(stf.NoTask)
	s.prog.CountExecuted()
}

// attempt runs one task body to completion, a panic converted into the
// run's error.
func (s *submitter) attempt(id stf.TaskID, f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sequential: task %d panicked: %v", id, r)
		}
	}()
	s.timed(f)
	return nil
}

// timed runs the body once, charging its duration to the task time unless
// accounting is off.
func (s *submitter) timed(f func()) {
	if s.noAcct {
		f()
		return
	}
	t0 := trace.Stamp()
	f()
	s.task += trace.Stamp() - t0
}
