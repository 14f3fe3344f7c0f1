package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"rio/internal/stf"
	"rio/internal/trace"
)

// Options configures a RIO engine.
type Options struct {
	// Workers is the number of worker goroutines (p). Must be >= 1.
	Workers int
	// Mapping assigns each task to its executing worker. It must be
	// deterministic and must return values in [0, Workers). If nil, a
	// cyclic mapping (id mod Workers) is used.
	Mapping stf.Mapping
	// NoAccounting disables per-task and per-wait time-stamping: no clock
	// is read inside a run, Stats carries only Wall and the task counters,
	// and the progress table's wait histogram stays empty (every other
	// Progress counter is published either way; the adaptive spin seed of
	// the next run then starts from spinSeed). Accounting costs two
	// monotonic clock reads (trace.Stamp) per executed task and two per
	// dependency wait: a third of a run of empty tasks, nothing
	// measurable on bodies of a microsecond (BenchmarkAccountingOverhead;
	// DESIGN.md §9, "What accounting costs").
	NoAccounting bool
	// StallTimeout arms the stall watchdog: when no task completes for
	// this long and the workers are provably deadlocked (all blocked in
	// dependency waits) or stuck inside one task body, the run aborts
	// with a stf.StallError naming the stuck tasks and data accesses.
	// 0 disables the watchdog (the default); mere load imbalance never
	// trips it because completions elsewhere reset the window.
	StallTimeout time.Duration
	// NoGuard disables the replay-divergence guard. By default every
	// worker folds its observed (taskID, accesses) stream into a running
	// hash (a few arithmetic ops per task, private memory only) and the
	// end of a run cross-checks the workers; a nondeterministic program
	// that happens to complete is then reported as a stf.DivergenceError
	// instead of silently corrupting data. Pruned replays (§3.5) are
	// exempt automatically. Set NoGuard for overhead micro-measurements.
	NoGuard bool
	// Hooks optionally installs lifecycle callbacks (see stf.Hooks). Nil
	// costs the hot path one pointer test per site.
	Hooks *stf.Hooks
	// Retry installs transient-fault retry of task bodies (see
	// stf.RetryPolicy): failed attempts roll back their write-set via
	// Snapshots and re-execute with deterministic backoff. Nil (the
	// default) disables retry at the cost of one pointer test per task.
	Retry *stf.RetryPolicy
	// Snapshots captures and restores data objects for retry rollback. A
	// task writing data the Snapshotter cannot capture (or nil Snapshots)
	// is not retried unless its write accesses are flagged Idempotent.
	Snapshots stf.Snapshotter
	// Resume skips the completed tasks of a previous run's checkpoint:
	// their effects are already in data memory, so the run converges to
	// the same final state as an uninterrupted one.
	Resume *stf.Checkpoint
	// Checkpoint enables completed-task tracking even without a retry
	// policy, so a failed run's error carries a stf.PartialResult (and
	// therefore a resumable stf.Checkpoint). Retry != nil implies it.
	Checkpoint bool
	// Steal enables bounded, dependency-safe work stealing: an idle worker
	// (parked or past its spin budget in a dependency wait, or done with
	// its own replay) may claim and execute a victim's next in-order task
	// when the shared counter state proves all of its accesses available
	// (see stf.StealPolicy and internal/core/steal.go). Steal readiness comes
	// from tables that ride on the compiled program (built at its first
	// armed run, shared by every engine and session running it, gone with
	// it: stf.CompiledProgram.StealMeta), so an armed engine records and
	// compiles a closure program before running it (see RunContext), and
	// runs every compiled program in canonical form — no access elided,
	// since any task may execute on a thief.
	//
	// Nil (the default) keeps the paper's pure static model: a replay tests
	// one flag per micro-op and touches no claim or steal table.
	Steal *stf.StealPolicy
}

// Engine is a decentralized in-order STF execution engine. An Engine is
// reusable (Run may be called repeatedly) but not concurrently. Reuse
// carries pooled state: a run borrows the per-data cells, local arenas and
// submitters an earlier run gave back instead of allocating them, so a busy
// engine holds one such state in flight and an idle one holds it only until
// the garbage collector empties the pool. The pool hands a state to one run
// (or session) at a time, and a run gives it back only once nothing of it
// can still be running, so state is exclusive to a run. The state of a run
// the stall watchdog abandons is never given back: it leaks with the wedged
// goroutine, and the next run starts from a fresh one.
type Engine struct {
	workers int
	// mapping is published atomically: should a SetMapping race a run's
	// start, each run still snapshots one consistent mapping for all of
	// its workers — a racing swap affects the next run, never a running one.
	mapping      atomic.Pointer[stf.Mapping]
	noAcct       bool
	spinSeed     int // the wait's escalation lengths: the constants of the
	yieldIters   int // same names, changed only by tests (SetWaitLimits)
	stallTimeout time.Duration
	guard        bool
	hooks        *stf.Hooks
	retry        *stf.RetryPolicy
	snaps        stf.Snapshotter
	resume       *stf.Checkpoint
	checkpoint   bool
	steal        *stf.StealPolicy
	// LastRun holds the run record Stats and Progress read.
	trace.LastRun
	// sessionActive latches while a streaming Session (OpenSession) holds the
	// engine's run state; Run and a second OpenSession are rejected until the
	// session is closed.
	sessionActive atomic.Bool
	// states pools the idle *runState runs and sessions borrow (borrow,
	// giveBack), and lastIdle weakly names the one given back last
	// (takeIdle).
	states   sync.Pool
	lastIdle atomic.Pointer[weak.Pointer[runState]]
	// borrowed, when set (white-box tests only), observes every state
	// borrow hands out, after its reset.
	borrowed func(st *runState, numData int)
}

// New returns a RIO engine for the given options.
func New(o Options) (*Engine, error) {
	if o.Workers < 1 {
		return nil, fmt.Errorf("core: Workers must be >= 1, got %d", o.Workers)
	}
	if o.StallTimeout < 0 {
		return nil, fmt.Errorf("core: negative StallTimeout %v", o.StallTimeout)
	}
	if p := o.Steal; p != nil {
		if p.MaxScan < 0 {
			return nil, fmt.Errorf("core: negative Steal.MaxScan %d", p.MaxScan)
		}
		for _, v := range p.Victims {
			if v < 0 || int(v) >= o.Workers {
				return nil, fmt.Errorf("core: Steal.Victims entry %d out of range [0,%d)", v, o.Workers)
			}
		}
	}
	m := o.Mapping
	if m == nil {
		p := o.Workers
		m = func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(id % stf.TaskID(p)) }
	}
	e := &Engine{
		workers:      o.Workers,
		noAcct:       o.NoAccounting,
		spinSeed:     spinSeed,
		yieldIters:   yieldIters,
		stallTimeout: o.StallTimeout,
		guard:        !o.NoGuard,
		hooks:        o.Hooks,
		retry:        o.Retry,
		snaps:        o.Snapshots,
		resume:       o.Resume,
		checkpoint:   o.Checkpoint || o.Retry != nil,
		steal:        o.Steal,
	}
	e.mapping.Store(&m)
	return e, nil
}

// Name identifies the execution model in reports.
func (e *Engine) Name() string { return "rio" }

// NumWorkers returns p.
func (e *Engine) NumWorkers() int { return e.workers }

// SetMapping replaces the engine's task mapping for subsequent runs. A nil
// mapping restores the default cyclic one. The swap is atomic: a call
// racing an in-flight run cannot corrupt it (each run snapshots the
// mapping once at its start), but which runs observe the new mapping is
// then up to the race.
func (e *Engine) SetMapping(m stf.Mapping) {
	if m == nil {
		p := e.workers
		m = func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(id % stf.TaskID(p)) }
	}
	e.mapping.Store(&m)
}

// Run executes prog over numData data objects. Every worker replays prog
// (decentralized task management); the call returns once all workers have
// finished the whole task flow. Run returns an error if any worker detected
// a protocol violation (non-monotonic task IDs, mapping out of range), if a
// task body panicked, if the replay-divergence guard found the workers
// replaying different flows, or if the stall watchdog (when armed) gave up
// on the run — the run then aborts: the failing worker unwinds and the
// others stop at their next dependency wait or task submission.
func (e *Engine) Run(numData int, prog stf.Program) error {
	return e.RunContext(context.Background(), numData, prog)
}

// RunContext is Run with cancellation: when ctx is canceled (or its
// deadline expires), workers blocked in dependency waits unwind promptly
// and workers between tasks stop submitting; a worker already inside a
// task body finishes that body first. The returned error wraps ctx's
// cause. Cancellation is cooperative — a task body that never returns
// keeps RunContext blocked unless the stall watchdog is armed, in which
// case the run is abandoned with a StallError after the threshold (the
// wedged worker goroutine is leaked and the engine must not be reused).
//
// With Options.Steal set the program is recorded once on the caller's
// goroutine (bodies kept, none executed), compiled under the engine's
// mapping and run through RunCompiledContext: steal readiness lives in the
// compiled program's metadata (which dies with the single-use recording),
// and one recording replayed by every worker cannot diverge. A program that
// does not record as one dense flow under a total mapping (SharedWorker
// tasks, §3.5-pruned submissions) takes plain closure replay instead,
// without stealing.
func (e *Engine) RunContext(ctx context.Context, numData int, prog stf.Program) error {
	if e.steal != nil {
		if cp, k := e.recordCompiled(numData, prog); cp != nil {
			return e.RunCompiledContext(ctx, cp, k)
		}
	}
	return e.run(ctx, numData, flow{prog: prog})
}

// run is the scaffolding shared by the closure-replay and compiled-replay
// paths: borrow the synchronization state, spawn one goroutine per worker
// replaying f against its submitter, supervise the run (cancellation, stall
// watchdog) and assemble the error verdict.
func (e *Engine) run(ctx context.Context, numData int, f flow) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: run not started: %w", context.Cause(ctx))
	}
	if numData < 0 {
		return errors.New("core: negative numData")
	}
	if e.sessionActive.Load() {
		return errors.New("core: engine has an open streaming session; close it before Run")
	}
	// Seed the adaptive spin budgets from the previous run's wait
	// histogram (if any), read in place before the new progress table
	// replaces it.
	seed := e.spinSeed
	if prev := e.Table(); prev != nil {
		seed = adaptiveSeed(prev.WaitHist(), e.spinSeed)
	}
	// The run's width: a compiled program's worker count, which may be
	// narrower than the engine (RunCompiledContext), else the engine's.
	w := e.workers
	if f.cp != nil {
		w = f.cp.Workers
	}
	rp := e.Begin(w)
	if h := e.hooks; h != nil && h.OnRunStart != nil {
		h.OnRunStart(w, numData)
	}
	err := e.execute(ctx, numData, rp, seed, f)
	if h := e.hooks; h != nil && h.OnRunEnd != nil {
		h.OnRunEnd(err)
	}
	return err
}

// execute is run's engine room, split out so run can bracket it with the
// OnRunStart/OnRunEnd hooks. It starts the run's w workers (w is rp's
// width) and, when the watchdog is armed, its monitor, and it ends the
// run's record.
//
// The caller is worker 0 unless the watchdog is armed: launch replays worker
// 0's stream on this goroutine and spawns only the other w−1, so a width-1
// run starts no goroutine. The cancel callback is registered before the
// launch, because the caller cannot watch ctx while it replays. A watched
// run keeps the caller as a pure supervisor: only a free caller can abandon
// a worker wedged inside a body.
func (e *Engine) execute(ctx context.Context, numData int, rp *trace.ProgressTable, spinSeed int, f flow) error {
	w := rp.Workers()
	st := e.borrow(numData, w, rp, spinSeed)
	subs := st.subs[:w]
	for _, s := range subs {
		s.resume, s.track, s.watched = e.resume, e.checkpoint, e.stallTimeout > 0
		if e.guard && f.prog != nil {
			// Only a closure program can diverge between workers: compiled
			// streams all derive from one graph.
			s.guard = &guardState{}
		}
	}
	var stopCancel func() bool
	var canceled chan struct{}
	if ctx.Done() != nil {
		canceled = make(chan struct{})
		stopCancel = context.AfterFunc(ctx, func() {
			defer close(canceled)
			st.abort.raise(fmt.Errorf("core: run canceled: %w", context.Cause(ctx)), true)
		})
	}
	watched := e.stallTimeout > 0
	start := time.Now()
	st.launch(f, w, !watched)
	done := st.done
	var stalled chan *stf.StallError
	if watched {
		stalled = make(chan *stf.StallError, 1)
		go e.monitor(subs, &st.abort, done, stalled)
	}

	select {
	case <-done:
	case stall := <-stalled:
		// nil: the monitor left without a verdict, the run is failing for
		// another reason and the workers unwind through the abort flag.
		if stall != nil {
			// The watchdog aborted the run; give the workers the grace
			// window to unwind through the abort flag. Only a worker wedged
			// inside a task body can miss it — then the run is abandoned:
			// the wedged goroutine leaks, and with it the run's state, which
			// is never given back; per-worker stats are unavailable (reading
			// them would race with the leaked goroutine).
			grace := time.NewTimer(stallGrace)
			select {
			case <-done:
				grace.Stop()
			case <-grace.C:
				if stopCancel != nil {
					stopCancel()
				}
				e.Abandon(time.Since(start))
				return fmt.Errorf("core: run abandoned (a worker is wedged inside a task body and cannot be stopped; do not reuse this engine): %w", stall)
			}
		}
		<-done
	}
	wall := time.Since(start)
	// Join the monitor, which closes stalled on its way out, and the cancel
	// callback, which stop no longer prevents once it has started.
	if stalled != nil {
		for range stalled {
		}
	}
	if stopCancel != nil && !stopCancel() {
		<-canceled
	}

	e.End(wall, !e.noAcct)
	err := verdict(subs, &st.abort)
	if err == nil {
		if err = guardVerdict(subs); err != nil {
			err = fmt.Errorf("core: %w", err)
		}
	}
	if err != nil && e.checkpoint {
		err = &stf.PartialError{Cause: err, Result: e.partialResult(subs, len(f.tasks))}
	}
	// The workers, the monitor and the cancel callback are joined above and
	// nothing returned references the state: it goes back to the pool.
	e.giveBack(st)
	return err
}

// verdict assembles the error of a run (execute) or a stream window
// (Session.join) from its workers' error slots, read after every worker
// has finished. The originating failure comes first when it came from
// outside the workers (cancellation, a timeout, the watchdog) — it is in no
// worker's slot — then the workers' own errors, then the secondary
// casualties of the abort collapsed into one summary entry. An external
// raise that lost the race against a fully completed flow — every worker
// clean, so every task ran — is ignored: the flow met its deadline.
func verdict(subs []*submitter, abort *abortState) error {
	var errs []error
	aborted := 0
	for w, s := range subs {
		switch {
		case s.err == nil:
		case errors.Is(s.err, errAborted):
			aborted++
		default:
			errs = append(errs, fmt.Errorf("worker %d: %w", w, s.err))
		}
	}
	if len(errs) == 0 && aborted == 0 {
		return nil
	}
	if cause, external := abort.state(); external && cause != nil {
		errs = append([]error{cause}, errs...)
	}
	if aborted > 0 {
		errs = append(errs, fmt.Errorf("core: %d worker(s) %w", aborted, errAborted))
	}
	return errors.Join(errs...)
}

// partialResult assembles the dependency-closed frontier of a failed
// fault-tolerant run from the workers' completed-task logs. A task is
// completed when its body finished (its effects are published in data
// memory); the set is dependency-closed because a body only ever started
// after its get_* waits observed every predecessor's completion. flowLen
// is the task table's length; closure replay has none (0) and derives the
// flow length from the replay positions.
func (e *Engine) partialResult(subs []*submitter, flowLen int) *stf.PartialResult {
	var completed, failed []stf.TaskID
	for _, s := range subs {
		completed = append(completed, s.done...)
		if flowLen < int(s.next) {
			flowLen = int(s.next)
		}
		var tf *stf.TaskFailure
		if errors.As(s.err, &tf) {
			failed = append(failed, tf.Task)
		}
	}
	return stf.NewPartialResult(flowLen, e.resume, completed, failed)
}

// submitter is the per-worker view of the task flow (Algorithm 1). Each
// worker replays the program against its own submitter.
type submitter struct {
	eng    *Engine
	worker stf.WorkerID
	next   stf.TaskID
	// mapping is the task→worker assignment this replay resolves ownership
	// against: the engine's mapping for one-shot runs, the snapshot taken at
	// OpenSession for streaming sessions (so every window of a session — and
	// the compiled shapes cached for it — bakes in one consistent mapping).
	mapping stf.Mapping
	shared  []sharedState
	local   []localState
	claims  *claimTable
	abort   *abortState
	watched bool                // the stall watchdog reads this worker's slow waits
	track   bool                // log completed tasks for checkpoints
	guard   *guardState         // nil when the divergence guard is disabled
	prog    *trace.ProgressCell // the worker's run record (Progress, Stats, watchdog)
	hooks   *stf.Hooks          // nil when no lifecycle hooks are installed
	retry   *stf.RetryPolicy    // nil disables task retry
	snaps   stf.Snapshotter     // write-set capture for retry rollback
	resume  *stf.Checkpoint     // completed tasks of a previous run to skip
	thief   *stealState         // this worker's steal state; nil unless the engine is armed
	steal   *stealState         // thief while the flow being replayed is armed, else nil
	flow    *flow               // the flow being replayed, nil between runs
	done    []stf.TaskID        // tasks this worker completed (track only)
	err     error
	// task and idle are the accounted body and wait time, stored in the
	// cell when the worker exits.
	task, idle time.Duration
	// spinBudget is the busy-poll budget of the next dependency wait:
	// seeded from the previous run's wait histogram, then fed back per
	// completed wait.
	spinBudget int
	// parkTimer is the reusable failsafe timer of parked waits, allocated
	// by the first park.
	parkTimer *time.Timer
}

// flow is what one worker replays, the unit a one-shot run and a stream
// window have in common. Exactly one form is set: prog, a closure program
// unrolled against the submitter (Run); cp, compiled streams interpreted
// against tasks (RunCompiled, a compiled window); or tasks alone, submitted
// through the closure protocol path (a window under a partial mapping,
// whose SharedWorker tasks are claimed as they are reached).
type flow struct {
	prog   stf.Program
	cp     *stf.CompiledProgram
	tasks  []stf.Task
	kernel stf.Kernel
	meta   *stf.StealMeta // non-nil iff the replay is armed; cp is then meta.Program
}

// compiledFlow is the one place a replay gets armed: on an engine with a
// steal policy a compiled flow (cp != nil: closure windows never steal)
// runs the canonical program of its steal metadata in cp's place — a thief
// proves readiness against the shared cells, which streams with elided data
// do not keep current. The metadata describes the program actually run, so
// the tasks a resume pruned out of every stream are never stealable.
func (e *Engine) compiledFlow(cp *stf.CompiledProgram, tasks []stf.Task, k stf.Kernel) flow {
	f := flow{cp: cp, tasks: tasks, kernel: k}
	if e.steal != nil && cp != nil {
		f.meta = cp.StealMeta()
		f.cp = f.meta.Program
	}
	return f
}

// replay walks f on this worker, for a run and a stream window alike. A
// panicking task (or replay closure) must not leave the other workers
// blocked on its unfinished dependencies: the panic is recorded, the abort
// flag raised (dependency waits and submissions poll it) and this worker
// unwinds. An armed replay ends with the steal drain, so the drain precedes
// the worker's exit, and no steal outlives its run or window.
func (s *submitter) replay(f *flow) {
	defer func() {
		s.flow = nil // the state is pooled: hold no flow between runs
		if r := recover(); r != nil {
			err := fmt.Errorf("core: panic during replay: %v", r)
			s.fail(err)
			s.abort.raise(err, false)
		}
	}()
	s.flow, s.steal = f, nil
	if f.meta != nil {
		s.steal = s.thief
		s.steal.flow = f
		clear(s.steal.cursors)
	}
	switch {
	case f.prog != nil:
		f.prog(s)
	case f.cp != nil:
		s.runStreamTasks(f.cp, f.tasks, f.kernel)
	default:
		for i := range f.tasks {
			t := &f.tasks[i]
			s.submit(t.ID, t.Accesses, body{t: t, k: f.kernel})
		}
	}
	if s.steal != nil && s.err == nil {
		s.stealDrain()
	}
}

// errAborted marks workers stopped because the run aborted on another
// worker (panic, protocol violation, cancellation or watchdog).
var errAborted = errors.New("aborted after a failure elsewhere in the run")

// owns resolves the executor of task id for this worker: statically via
// the mapping, or dynamically (first-to-reach claim) for SharedWorker
// tasks. It reports whether this worker executes the task; ok is false on
// a mapping error (already recorded via fail).
func (s *submitter) owns(id stf.TaskID) (execute, ok bool) {
	owner := s.mapping(id)
	switch {
	case owner == s.worker:
		return true, true
	case owner == stf.SharedWorker:
		if s.claims.tryClaim(int64(id)) {
			s.prog.CountClaimed()
			return true, true
		}
		return false, true
	case owner < 0 || int(owner) >= s.eng.workers:
		err := fmt.Errorf("core: mapping(%d) = %d out of range [0,%d)", id, owner, s.eng.workers)
		s.fail(err)
		// Every worker evaluates the same deterministic mapping, but a
		// worker may be blocked on this task's data rather than reach
		// this point itself — raise the abort so nobody waits forever.
		s.abort.raise(err, false)
		return false, false
	default:
		return false, true
	}
}

// Worker implements stf.Submitter.
func (s *submitter) Worker() stf.WorkerID { return s.worker }

// NumWorkers implements stf.Submitter.
func (s *submitter) NumWorkers() int { return s.eng.workers }

// body is a task's work in either submission form: a recorded task
// dispatched through its kernel, or a closure. It travels by value, so
// neither form allocates on the per-task path.
type body struct {
	t  *stf.Task
	k  stf.Kernel
	fn stf.TaskFunc
}

func (b body) run(w stf.WorkerID) {
	if b.fn != nil {
		b.fn()
		return
	}
	b.k(b.t, w)
}

// Submit implements stf.Submitter for closure tasks.
func (s *submitter) Submit(fn stf.TaskFunc, accesses ...stf.Access) stf.TaskID {
	id := s.next
	s.submit(id, accesses, body{fn: fn})
	return id
}

// SubmitTask implements stf.Submitter for recorded tasks. Task IDs may skip
// ahead of the submission counter: the skipped IDs are tasks pruned from
// this worker's view of the flow (paper §3.5), which by the pruning
// contract touch no data this worker ever synchronizes on.
func (s *submitter) SubmitTask(t *stf.Task, k stf.Kernel) stf.TaskID {
	if t.ID < s.next {
		err := fmt.Errorf("core: task ID %d submitted after ID %d (task flow must be replayed in order)", t.ID, s.next-1)
		s.fail(err)
		s.abort.raise(err, false)
		return t.ID
	}
	if t.ID > s.next && s.guard != nil {
		// A pruned flow: per-worker streams legitimately differ, so the
		// cross-worker divergence check does not apply.
		s.guard.markGap()
	}
	s.submit(t.ID, t.Accesses, body{t: t, k: k})
	return t.ID
}

// submit is one step of the closure replay (Algorithm 1): skip, declare or
// acquire → execute → release task id, as the mapping decides.
func (s *submitter) submit(id stf.TaskID, accesses []stf.Access, b body) {
	if s.err != nil {
		return
	}
	if s.abort.raised() {
		s.fail(errAborted)
		return
	}
	if s.resume != nil && s.resume.Contains(id) {
		s.skipCompleted(id)
		return
	}
	s.next = id + 1
	if s.guard != nil {
		s.guard.fold(id, accesses)
	}
	execute, ok := s.owns(id)
	if !ok {
		return
	}
	if !execute {
		s.declare(accesses, int64(id))
		s.prog.CountDeclared(1)
		return
	}
	s.acquire(id, accesses)
	if s.err != nil {
		return // aborted while waiting
	}
	if s.exec(id, accesses, b) {
		// Published before the user's program runs again: the watchdog
		// must not blame a body that has finished.
		s.prog.Publish()
		s.release(accesses, int64(id))
	}
}

// skipCompleted advances past a task a Resume checkpoint marks completed:
// its effects are already in data memory, so no synchronization state may
// be touched on its behalf — every worker skips the same set, keeping the
// replays aligned (the §3.5 pruning argument). The guard does not fold
// skipped tasks (consistently, on every worker), and Skipped is charged to
// the task's owner so run totals line up with compiled-replay resume.
func (s *submitter) skipCompleted(id stf.TaskID) {
	s.next = id + 1
	if o := s.mapping(id); o == s.worker || (o == stf.SharedWorker && s.worker == 0) {
		s.prog.CountSkipped(1)
	}
}

// exec is the task-execution lifecycle, shared by every way a task reaches
// its executor (closure replay, a compiled stream's OpExec, a steal): run
// the body between its reduction locks, published as the worker's current
// task, under the lifecycle hooks and — when installed — the retry policy,
// and count it. It reports whether the body completed; the caller then
// publishes completion its own way (release, releaseStolen, or the stream's
// terminate micro-ops), and publishes the count too: exec only counts it
// (trace.ProgressCell.Finish), so a compiled stream whose next micro-op is
// an exec carries it in that task's start (trace.ProgressCell.Start), and
// every other caller publishes it (Publish) before its next step. The reduction mutexes are
// therefore released before the counters publish, which is safe: the mutex
// only serializes bodies of commuting reductions, while waiters are gated
// by the counters, which advance only after the body has completed either
// way. The unlock is deferred so a panicking body cannot leave the per-data
// mutexes held. On a failure completion stays unpublished: without a retry
// policy the panic propagates to the worker recover and the run aborts;
// with one, runAttempts has recorded the terminal failure in s.err.
func (s *submitter) exec(id stf.TaskID, accesses []stf.Access, b body) bool {
	if s.lockReductions(accesses) {
		defer s.unlockReductions(accesses)
	}
	s.prog.Start(id)
	if h := s.hooks; h != nil && h.OnTaskStart != nil {
		h.OnTaskStart(s.worker, id)
	}
	if s.retry != nil {
		if !s.runAttempts(id, accesses, b) {
			s.prog.Publish()
			return false
		}
	} else {
		s.runTimed(b)
	}
	if h := s.hooks; h != nil && h.OnTaskEnd != nil {
		h.OnTaskEnd(s.worker, id)
	}
	s.prog.Finish()
	if s.track {
		s.done = append(s.done, id)
	}
	return true
}

// runTimed runs the body once, charging its duration to the worker's task
// time unless accounting is off (a panicking body charges nothing).
func (s *submitter) runTimed(b body) {
	if s.eng.noAcct {
		b.run(s.worker)
		return
	}
	t0 := trace.Stamp()
	b.run(s.worker)
	s.task += trace.Stamp() - t0
}

func (s *submitter) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// acquire implements the get_read / get_write / get_red calls of
// Algorithm 1: block until every dependency registered locally has
// executed. id is the acquiring task, threaded through for stall
// diagnosis.
func (s *submitter) acquire(id stf.TaskID, accesses []stf.Access) {
	for _, a := range accesses {
		switch {
		case a.Mode.Writes():
			s.getWrite(id, a)
		case a.Mode.Commutes():
			s.getRed(id, a)
		default:
			s.getRead(id, a)
		}
	}
}

// The get helpers below wait for each composite readiness condition
// piecewise; every piece is stable once true, because any task that could
// perturb it was registered after the current one and therefore
// transitively waits on it. They are shared by the closure-replay acquire
// above and the compiled execution loop.

// getWrite waits for previous writes, then reads, then reductions.
func (s *submitter) getWrite(id stf.TaskID, a stf.Access) {
	sh := &s.shared[a.Data]
	lo := &s.local[a.Data]
	if !lo.writeReady(sh) {
		s.wait(id, a, sh, func() bool { return sh.lastExecutedWrite.Load() == lo.lastRegisteredWrite })
		s.wait(id, a, sh, func() bool { return sh.nbReadsSinceWrite.Load() == lo.nbReadsSinceWrite })
		s.wait(id, a, sh, func() bool { return sh.nbRedsSinceWrite.Load() == lo.nbRedsSinceWrite })
	}
}

// getRed waits for previous writes, reads, and earlier-run reductions;
// members of the own run commute.
func (s *submitter) getRed(id stf.TaskID, a stf.Access) {
	sh := &s.shared[a.Data]
	lo := &s.local[a.Data]
	if !lo.redReady(sh) {
		s.wait(id, a, sh, func() bool { return sh.lastExecutedWrite.Load() == lo.lastRegisteredWrite })
		s.wait(id, a, sh, func() bool { return sh.nbReadsSinceWrite.Load() == lo.nbReadsSinceWrite })
		s.wait(id, a, sh, func() bool { return sh.nbRedsSinceWrite.Load() >= lo.nbRedsBeforeRun })
	}
}

// getRead waits for previous writes and reductions.
func (s *submitter) getRead(id stf.TaskID, a stf.Access) {
	sh := &s.shared[a.Data]
	lo := &s.local[a.Data]
	if !lo.readReady(sh) {
		s.wait(id, a, sh, func() bool { return sh.lastExecutedWrite.Load() == lo.lastRegisteredWrite })
		s.wait(id, a, sh, func() bool { return sh.nbRedsSinceWrite.Load() == lo.nbRedsSinceWrite })
	}
}

// lockReductions takes the per-data reduction mutexes of the task's
// commutative accesses, in ascending data order so that concurrent
// multi-reduction tasks cannot deadlock. It returns whether any lock was
// taken.
func (s *submitter) lockReductions(accesses []stf.Access) bool {
	locked := false
	last := stf.DataID(-1)
	for {
		next := stf.DataID(-1)
		for _, a := range accesses {
			if a.Mode.Commutes() && a.Data > last && (next == -1 || a.Data < next) {
				next = a.Data
			}
		}
		if next == -1 {
			return locked
		}
		if mu := &s.shared[next].redMu; !mu.TryLock() {
			// About to block: a task finished before this one must not
			// read as current meanwhile (see exec).
			s.prog.Publish()
			mu.Lock()
		}
		locked = true
		last = next
	}
}

func (s *submitter) unlockReductions(accesses []stf.Access) {
	for _, a := range accesses {
		if a.Mode.Commutes() {
			s.shared[a.Data].redMu.Unlock()
		}
	}
}

// release implements the terminate_read / terminate_write / terminate_red
// calls.
func (s *submitter) release(accesses []stf.Access, id int64) {
	for _, a := range accesses {
		sh := &s.shared[a.Data]
		lo := &s.local[a.Data]
		switch {
		case a.Mode.Writes():
			lo.terminateWrite(sh, id)
		case a.Mode.Commutes():
			lo.terminateRed(sh)
		default:
			lo.terminateRead(sh)
		}
	}
}

// declare implements the declare_read / declare_write / declare_red calls
// for tasks owned by other workers: private-memory bookkeeping only.
func (s *submitter) declare(accesses []stf.Access, id int64) {
	for _, a := range accesses {
		lo := &s.local[a.Data]
		switch {
		case a.Mode.Writes():
			lo.declareWrite(id)
		case a.Mode.Commutes():
			lo.declareRed()
		default:
			lo.declareRead()
		}
	}
}
