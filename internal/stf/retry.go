package stf

import (
	"fmt"
	"sort"
	"time"
)

// Fault tolerance: the types shared by every engine's retry / checkpoint /
// resume machinery. The design follows the distributed task runtimes cited
// in PAPERS.md (Bosch et al.'s dependency-tracked re-execution, DuctTeip's
// runtime-managed data versioning), specialized to RIO's in-order model —
// where each worker's replay position plus the per-data termination state
// already forms a dependency-closed frontier, so a consistent checkpoint
// falls out of the protocol instead of requiring extra coordination.

// RetryPolicy configures transient-fault retry of task bodies. A task
// whose body panics (or is failed by a fault injector) is rolled back —
// its write-set restored from the pre-attempt snapshot — and re-executed,
// up to MaxAttempts total attempts with deterministic bounded backoff
// between them. A nil *RetryPolicy (the default everywhere) disables
// retry entirely and costs the execution hot path one pointer test.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per task, first try
	// included. Values <= 1 mean a single attempt (no retry), which still
	// enables completed-task tracking for checkpoints.
	MaxAttempts int
	// Backoff is the delay before the second attempt; subsequent delays
	// double, capped at MaxBackoff. Zero means no delay. The schedule is
	// deterministic (no jitter) so failing runs are reproducible.
	Backoff time.Duration
	// MaxBackoff caps the exponential schedule; 0 means 100*Backoff.
	MaxBackoff time.Duration
	// Classify, when non-nil, decides whether a recovered failure cause
	// is transient (retryable). A nil Classify treats every failure as
	// transient. A cause rejected by Classify fails the task on the spot,
	// with the attempts made so far recorded in the TaskFailure.
	Classify func(cause any) bool
}

// Transient reports whether the policy classifies cause as retryable.
func (p *RetryPolicy) Transient(cause any) bool {
	if p.Classify == nil {
		return true
	}
	return p.Classify(cause)
}

// Delay returns the backoff before attempt number attempt (attempt >= 2;
// the first attempt never waits). The schedule is Backoff * 2^(attempt-2),
// capped at MaxBackoff — deterministic, so a failing run replays the same
// timing every time.
func (p *RetryPolicy) Delay(attempt int) time.Duration {
	if p.Backoff <= 0 || attempt <= 1 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 100 * p.Backoff
	}
	d := p.Backoff
	for i := 2; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// backoffSlice bounds each individual sleep of a retry backoff so the
// engine's abort signal is polled — and cuts the wait short — at least
// this often.
const backoffSlice = 10 * time.Millisecond

// RunAttempts executes one task body under the policy: the attempt loop
// every engine shares. The task's write-set is snapshotted once through
// snaps (the caller holds the task's reduction locks and its dependencies
// have resolved, so the data is quiescent); a failed attempt — attempt
// panicked — is rolled back, then retried after the policy's deterministic
// backoff, until it succeeds, the attempts are exhausted, the cause is
// classified permanent, or the run aborts. A write-set that cannot be
// snapshotted gets exactly one attempt (the preflight RIO-R001 pass
// reports that configuration before a run gets here).
//
// The engine supplies its side through three callbacks: attempt runs the
// body once (a panic is the failure signal); aborted reports whether the
// run is shutting down — it is polled after every failed attempt and at
// least every backoffSlice during a backoff; retried is told of each failed
// attempt that will be retried, before its backoff (the engines clear the
// worker's current task there: a backoff executes nothing).
//
// It returns completed when an attempt succeeded. Otherwise failure is the
// task's terminal *TaskFailure (write-set rolled back where a snapshot
// existed, so a checkpointed resume re-executes over clean data), or nil
// when the run aborted during a backoff: the task neither completed nor
// failed.
func (p *RetryPolicy) RunAttempts(snaps Snapshotter, id TaskID, accesses []Access,
	attempt func(), aborted func() bool, retried func(attempt int, cause any)) (failure *TaskFailure, completed bool) {
	restore, can := SnapshotWriteSet(snaps, accesses)
	maxAttempts := p.MaxAttempts
	if maxAttempts < 1 || !can {
		maxAttempts = 1
	}
	for n := 1; ; n++ {
		cause, ok := tryOnce(attempt)
		if ok {
			return nil, true
		}
		if restore != nil {
			restore()
		}
		if n >= maxAttempts || !p.Transient(cause) || aborted() {
			return &TaskFailure{Task: id, Attempts: n, Cause: cause}, false
		}
		retried(n, cause)
		for d := p.Delay(n + 1); d > 0 && !aborted(); d -= backoffSlice {
			time.Sleep(min(d, backoffSlice))
		}
		if aborted() {
			return nil, false
		}
	}
}

// tryOnce runs the body once, converting a panic into a returned cause.
func tryOnce(attempt func()) (cause any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok = r, false
		}
	}()
	attempt()
	return nil, true
}

// Snapshotter is the capability that makes rollback possible: it captures
// the value of one runtime-managed data object and returns a closure that
// restores it. The runtime invokes it on the executing worker, after the
// task's dependencies have resolved and its reduction locks are held, so a
// snapshot always observes a quiescent object — no other task is accessing
// it (sequential consistency guarantees exclusivity of the write-set).
//
// Data objects the Snapshotter cannot capture (CanSnapshot false) make the
// tasks writing them non-retryable, unless every such access carries the
// Idempotent flag (re-executing the write is harmless by construction).
type Snapshotter interface {
	// CanSnapshot reports whether d can be captured and restored.
	CanSnapshot(d DataID) bool
	// Snapshot captures d's current value and returns a closure restoring
	// it. Called only for data CanSnapshot accepted.
	Snapshot(d DataID) (restore func())
}

// SnapshotFuncs adapts two closures into a Snapshotter. A nil Can accepts
// every data object.
type SnapshotFuncs struct {
	Can  func(DataID) bool
	Save func(DataID) (restore func())
}

// CanSnapshot implements Snapshotter.
func (s SnapshotFuncs) CanSnapshot(d DataID) bool {
	return s.Can == nil || s.Can(d)
}

// Snapshot implements Snapshotter.
func (s SnapshotFuncs) Snapshot(d DataID) func() { return s.Save(d) }

// SnapshotWriteSet captures the write-set of a task about to execute: every
// access that writes or reduces into a data object and is not flagged
// Idempotent. It returns a single closure restoring all captured objects
// (nil when nothing needed capturing) and whether retrying the task is safe
// — false when some non-idempotent written data cannot be snapshotted (s is
// nil or CanSnapshot rejected it), in which case nothing is captured and
// the task must not be retried.
func SnapshotWriteSet(s Snapshotter, accesses []Access) (restore func(), ok bool) {
	var restores []func()
	for _, a := range accesses {
		if !a.Mode.Writes() && !a.Mode.Commutes() {
			continue
		}
		if a.Idempotent {
			continue
		}
		if s == nil || !s.CanSnapshot(a.Data) {
			return nil, false
		}
		restores = append(restores, s.Snapshot(a.Data))
	}
	if len(restores) == 0 {
		return nil, true
	}
	if len(restores) == 1 {
		return restores[0], true
	}
	return func() {
		for _, r := range restores {
			r()
		}
	}, true
}

// TaskFailure is the terminal failure of one task: its retries (if any)
// were exhausted, its failure was classified permanent, or its write-set
// could not be snapshotted so no retry was possible. The task's write-set
// was restored to its pre-attempt state where a snapshot existed, so the
// data a checkpointed resume re-executes over is clean. Retrieve it from a
// run error with errors.As.
type TaskFailure struct {
	// Task is the failed task.
	Task TaskID
	// Attempts is the number of attempts made (>= 1).
	Attempts int
	// Cause is the recovered failure cause of the last attempt.
	Cause any
}

// Error implements error.
func (f *TaskFailure) Error() string {
	return fmt.Sprintf("task %d failed after %d attempt(s): %v", f.Task, f.Attempts, f.Cause)
}

// Checkpoint is a dependency-closed frontier of a partially executed task
// flow: the set of tasks whose effects are fully published in data memory.
// Passing it as Options.Resume makes the next run of the same flow skip
// exactly these tasks; because the set is dependency-closed and the skipped
// tasks' results are already in memory, the resumed run converges to the
// same final state as an uninterrupted one (see DESIGN.md, "Fault
// tolerance").
type Checkpoint struct {
	// Tasks is the length of the task-flow prefix the interrupted run
	// observed (the highest submitted ID + 1); tasks at or beyond it were
	// never reached.
	Tasks int
	// Completed lists the completed tasks, sorted ascending.
	Completed []TaskID
}

// Contains reports whether id is in the completed set.
func (c *Checkpoint) Contains(id TaskID) bool {
	n := len(c.Completed)
	i := sort.Search(n, func(i int) bool { return c.Completed[i] >= id })
	return i < n && c.Completed[i] == id
}

// Len returns the number of completed tasks.
func (c *Checkpoint) Len() int { return len(c.Completed) }

// PartialResult describes how far an aborted run got: which tasks
// completed (effects fully published), which failed terminally, and — by
// subtraction — which were skipped. Engines attach it to the run error
// through a PartialError whenever fault-tolerance tracking is enabled
// (a retry policy or checkpointing requested).
type PartialResult struct {
	// Tasks is the observed task-flow prefix length (highest submitted
	// ID + 1). Under an abort the engines may not have unrolled the whole
	// flow, so this is a lower bound on the flow's true length.
	Tasks int
	// Completed lists tasks whose effects are fully published, sorted
	// ascending. The set is dependency-closed: every predecessor of a
	// completed task is itself completed.
	Completed []TaskID
	// Failed lists tasks that failed terminally (retries exhausted or
	// permanent failure), sorted ascending.
	Failed []TaskID
}

// NewPartialResult is the one constructor of a failed run's frontier,
// shared by every engine: tasks is the observed flow length, completed and
// failed are the run's own logs in any order (completed may repeat IDs —
// in-order workers each log what they ran, and a stolen task is logged by
// its thief), and the tasks a resume checkpoint skipped are carried over:
// they stay completed. The sets come out sorted and duplicate-free; the
// arguments are not retained.
func NewPartialResult(tasks int, resume *Checkpoint, completed, failed []TaskID) *PartialResult {
	var carried []TaskID
	if resume != nil {
		carried = resume.Completed
	}
	return &PartialResult{
		Tasks:     tasks,
		Completed: sortedSet(carried, completed),
		Failed:    sortedSet(failed),
	}
}

// sortedSet returns the ascending duplicate-free union of its arguments in
// fresh storage (nil when empty).
func sortedSet(lists ...[]TaskID) []TaskID {
	var ids []TaskID
	for _, l := range lists {
		ids = append(ids, l...)
	}
	SortTaskIDs(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Checkpoint returns the resumable frontier of the partial run.
func (r *PartialResult) Checkpoint() *Checkpoint {
	return &Checkpoint{Tasks: r.Tasks, Completed: r.Completed}
}

// Skipped returns the tasks of the observed prefix that neither completed
// nor failed: tasks the abort drained away before they could run.
func (r *PartialResult) Skipped() []TaskID {
	in := make(map[TaskID]bool, len(r.Completed)+len(r.Failed))
	for _, id := range r.Completed {
		in[id] = true
	}
	for _, id := range r.Failed {
		in[id] = true
	}
	var out []TaskID
	for id := TaskID(0); id < TaskID(r.Tasks); id++ {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}

// PartialError wraps a run's failure cause with the PartialResult of the
// aborted run. Unwrap exposes the cause, so errors.Is / errors.As keep
// seeing through to context cancellation, StallError, TaskFailure and the
// other verdicts.
type PartialError struct {
	// Cause is the run's underlying failure.
	Cause error
	// Result describes what the aborted run completed.
	Result *PartialResult
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("%v (%d task(s) completed, %d failed; resumable)",
		e.Cause, len(e.Result.Completed), len(e.Result.Failed))
}

// Unwrap exposes the underlying failure for errors.Is / errors.As.
func (e *PartialError) Unwrap() error { return e.Cause }

// SortTaskIDs sorts ids ascending in place — the canonical order of
// Checkpoint.Completed and the PartialResult sets.
func SortTaskIDs(ids []TaskID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
