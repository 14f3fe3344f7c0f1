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
	noAcct     bool
	hooks      *stf.Hooks
	retry      *stf.RetryPolicy
	snaps      stf.Snapshotter
	resume     *stf.Checkpoint
	checkpoint bool
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
	// Retry installs transient-fault retry of task bodies with write-set
	// rollback (see stf.RetryPolicy); nil disables retry. A terminal task
	// failure stops the run with a *stf.TaskFailure (instead of the
	// legacy bare panic message).
	Retry *stf.RetryPolicy
	// Snapshots captures and restores data objects for retry rollback.
	Snapshots stf.Snapshotter
	// Resume skips the completed tasks of a previous run's checkpoint.
	Resume *stf.Checkpoint
	// Checkpoint enables completed-task tracking even without a retry
	// policy; failed runs then return a stf.PartialError. Retry != nil
	// implies it.
	Checkpoint bool
}

// New returns a sequential engine.
func New(o Options) *Engine {
	return &Engine{
		noAcct: o.NoAccounting, hooks: o.Hooks,
		retry: o.Retry, snaps: o.Snapshots, resume: o.Resume,
		checkpoint: o.Checkpoint || o.Retry != nil,
	}
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
	s := &submitter{
		noAcct: e.noAcct, hooks: e.hooks, prog: rp.Worker(0),
		retry: e.retry, snaps: e.snaps, resume: e.resume, track: e.checkpoint,
	}
	if ctx.Done() != nil {
		s.ctx = ctx
	}
	t0 := time.Now()
	prog(s)
	wall := time.Since(t0)
	s.prog.Exit(s.task, 0, wall)
	e.End(wall, !e.noAcct)
	err := s.err
	if err != nil && e.checkpoint {
		err = &stf.PartialError{Cause: err, Result: s.partialResult(e.resume)}
	}
	if h := e.hooks; h != nil && h.OnRunEnd != nil {
		h.OnRunEnd(err)
	}
	return err
}

type submitter struct {
	next   stf.TaskID
	noAcct bool
	ctx    context.Context // non-nil only for cancelable runs
	hooks  *stf.Hooks
	retry  *stf.RetryPolicy    // nil disables task retry
	snaps  stf.Snapshotter     // write-set capture for retry rollback
	resume *stf.Checkpoint     // completed tasks of a previous run to skip
	track  bool                // log completed tasks for checkpoints
	done   []stf.TaskID        // completed tasks (track only)
	prog   *trace.ProgressCell // the run record (Progress, Stats)
	task   time.Duration       // accounted body time, stored in the cell at the end
	err    error
}

// partialResult assembles the frontier of a failed checkpointing run;
// sequential execution makes it trivially dependency-closed (a prefix of
// the flow, minus nothing).
func (s *submitter) partialResult(resume *stf.Checkpoint) *stf.PartialResult {
	var failed []stf.TaskID
	var tf *stf.TaskFailure
	if errors.As(s.err, &tf) {
		failed = []stf.TaskID{tf.Task}
	}
	return stf.NewPartialResult(int(s.next), resume, s.done, failed)
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
	s.run(accesses, func() { fn() })
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
	s.run(t.Accesses, func() { k(t, stf.MasterWorker) })
	return t.ID
}

func (s *submitter) run(accesses []stf.Access, f func()) {
	if s.err != nil {
		return
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		s.err = fmt.Errorf("sequential: run canceled: %w", context.Cause(s.ctx))
		return
	}
	id := s.next - 1
	if s.resume != nil && s.resume.Contains(id) {
		// Completed in a previous run; its effects are already in memory.
		s.prog.CountSkipped(1)
		return
	}
	s.prog.SetCurrent(id)
	if h := s.hooks; h != nil && h.OnTaskStart != nil {
		h.OnTaskStart(stf.MasterWorker, id)
	}
	// A failing task fails the run but does not unwind the caller (Submit
	// keeps its documented return-after-execution contract); subsequent
	// tasks are skipped via the sticky error, so the completed set is a
	// clean prefix. The failure skips OnTaskEnd and leaves Current parked on
	// the failed task, matching the parallel engines' contract.
	if s.err = s.attempt(id, accesses, f); s.err != nil {
		return
	}
	if h := s.hooks; h != nil && h.OnTaskEnd != nil {
		h.OnTaskEnd(stf.MasterWorker, id)
	}
	s.prog.SetCurrent(stf.NoTask)
	s.prog.CountExecuted()
	if s.track {
		s.done = append(s.done, id)
	}
}

// attempt runs one task body to completion and returns its failure, if
// any. Without a retry policy that is one shot, a panic converted into the
// run's error. With one it is the shared attempt loop
// (stf.RetryPolicy.RunAttempts): failed attempts roll back the write-set
// (the sequential engine's data is trivially quiescent) and re-execute
// after a deterministic backoff; a terminal failure is a *stf.TaskFailure.
func (s *submitter) attempt(id stf.TaskID, accesses []stf.Access, f func()) (err error) {
	if s.retry == nil {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("sequential: task %d panicked: %v", id, r)
			}
		}()
		s.timed(f)
		return nil
	}
	tf, ok := s.retry.RunAttempts(s.snaps, id, accesses,
		func() {
			s.prog.SetCurrent(id)
			s.timed(f)
		},
		func() bool { return s.ctx != nil && s.ctx.Err() != nil },
		func(attempt int, cause any) {
			s.prog.SetCurrent(stf.NoTask) // a backoff executes nothing
			s.prog.CountRetried()
			if h := s.hooks; h != nil && h.OnTaskRetry != nil {
				h.OnTaskRetry(stf.MasterWorker, id, attempt, cause)
			}
		})
	switch {
	case ok:
		return nil
	case tf != nil:
		return tf
	}
	return fmt.Errorf("sequential: run canceled: %w", context.Cause(s.ctx))
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
