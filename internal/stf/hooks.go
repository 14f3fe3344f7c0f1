package stf

// Hooks is the engine-agnostic lifecycle-hook surface of the runtime: a set
// of optional callbacks observing a run from the outside, designed so that the
// disabled case costs the hot path a single pointer test. Engines hold a
// *Hooks; a nil pointer (no hooks installed) short-circuits every site with
// one branch, and no allocation ever happens on behalf of the hooks — the
// callbacks receive only values the engine already has in registers.
//
// The paper's evaluation methodology (§2.3, §5.1) is deliberately post-hoc:
// fine-grained tracing perturbs fine-grained tasks, which is why the
// headline numbers rely on the aggregate time decomposition. Hooks are the
// mid-run complement for production use — progress bars, live schedulers'
// dashboards, custom profilers — with the perturbation opt-in and priced
// (see BenchmarkHookOverhead).
//
// Concurrency: the task and wait hooks are invoked concurrently from every
// worker goroutine; implementations must be safe for concurrent use.
// OnRunStart happens before any worker starts, OnRunEnd after every worker
// has returned (both from the goroutine driving Run). Individual callbacks
// may be nil; a Hooks value with all-nil fields behaves like no hooks.
type Hooks struct {
	// OnRunStart fires once per run, after option validation and before
	// any worker goroutine starts, with the worker count and the number of
	// data objects of the run.
	OnRunStart func(workers, numData int)
	// OnRunEnd fires once per run, after every worker has finished, with
	// the run's verdict (nil on success).
	OnRunEnd func(err error)
	// OnTaskStart fires on the executing worker immediately before a task
	// body runs (after its dependencies resolved and its reduction locks
	// are held).
	OnTaskStart func(w WorkerID, id TaskID)
	// OnTaskEnd fires on the executing worker immediately after the task
	// body returned. A panicking body skips its OnTaskEnd: the run is
	// aborting and the panic is reported through the run error instead.
	OnTaskEnd func(w WorkerID, id TaskID)
	// OnWaitStart fires when a dependency wait turns blocking (the
	// readiness condition was not already true), identifying the waiting
	// worker, the acquiring task and the unsatisfied access. Centralized
	// engines report queue waits with id == NoTask and a zero Access.
	OnWaitStart func(w WorkerID, id TaskID, a Access)
	// OnWaitEnd fires when the corresponding wait resolved (or was
	// abandoned by a run abort); every OnWaitStart is paired with exactly
	// one OnWaitEnd.
	OnWaitEnd func(w WorkerID, id TaskID, a Access)
	// OnTaskSteal fires on the thief immediately after it won the claim on
	// a stealable task owned by another worker (Options.Steal), before the
	// task's OnTaskStart. Requires a StealPolicy; see internal/stf/steal.go.
	OnTaskSteal func(thief, owner WorkerID, id TaskID)
}
