package centralized

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// Options configures a centralized engine.
type Options struct {
	// Workers is the total number of threads p, master included. One
	// thread (the master) is entirely dedicated to task management — the
	// paper notes this caps the runtime efficiency at (p-1)/p. Must be
	// >= 2 so at least one executor exists.
	Workers int
	// Window bounds the number of in-flight (submitted but not completed)
	// tasks; the master blocks when it is reached, like StarPU's
	// submission window. 0 means unbounded.
	Window int
	// NoAccounting disables per-task and per-wait time-stamping: no clock
	// is read between the run's start and end stamps, and Stats carries
	// only the wall times and the task counters.
	NoAccounting bool
	// Hooks optionally installs lifecycle callbacks (see stf.Hooks). Nil
	// costs the hot path one pointer test per site.
	Hooks *stf.Hooks
}

// Engine is a centralized out-of-order STF execution engine.
type Engine struct {
	workers int // total threads, master included
	window  int
	clk     clock // the accounting switch
	hooks   *stf.Hooks
	// LastRun holds the run record Stats and Progress read. Its layout
	// mirrors the threads: cell 0 is the master (whose Declared counts the
	// tasks it has submitted), executor w publishes to cell w+1.
	trace.LastRun
}

// New returns a centralized engine for the given options.
func New(o Options) (*Engine, error) {
	if o.Workers < 2 {
		return nil, fmt.Errorf("centralized: Workers must be >= 2 (one master + executors), got %d", o.Workers)
	}
	if o.Window < 0 {
		return nil, fmt.Errorf("centralized: negative Window %d", o.Window)
	}
	return &Engine{workers: o.Workers, window: o.Window, clk: clock{o.NoAccounting}, hooks: o.Hooks}, nil
}

// Name identifies the execution model in reports.
func (e *Engine) Name() string { return "centralized-fifo" }

// NumWorkers returns p (master included).
func (e *Engine) NumWorkers() int { return e.workers }

// Run executes prog over numData data objects: the calling goroutine
// becomes the master (unrolling prog, deriving dependencies, dispatching),
// while Workers-1 executor goroutines consume ready tasks.
func (e *Engine) Run(numData int, prog stf.Program) error {
	return e.RunContext(context.Background(), numData, prog)
}

// RunContext is Run with cancellation: when ctx is canceled (or its
// deadline expires) the master stops submitting and dispatching, executors
// stop picking up ready tasks, and the call returns once the tasks already
// inside executor bodies have finished. The returned error wraps ctx's
// cause. Cancellation is cooperative: a task body that never returns keeps
// RunContext blocked, as on every engine. A panicking body stops the run
// the same way, with the panic as its error.
func (e *Engine) RunContext(ctx context.Context, numData int, prog stf.Program) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("centralized: run not started: %w", context.Cause(ctx))
	}
	if numData < 0 {
		return errors.New("centralized: negative numData")
	}
	rp := e.Begin(e.workers)
	if h := e.hooks; h != nil && h.OnRunStart != nil {
		h.OnRunStart(e.workers, numData)
	}
	err := e.execute(ctx, numData, rp, prog)
	if h := e.hooks; h != nil && h.OnRunEnd != nil {
		h.OnRunEnd(err)
	}
	return err
}

// execute is RunContext's engine room, split out so the entry point can
// bracket it with the OnRunStart / OnRunEnd hooks; it ends the run record.
func (e *Engine) execute(ctx context.Context, numData int, rp *trace.ProgressTable, prog stf.Program) error {
	nexec := e.workers - 1
	m := &master{
		eng:    e,
		ready:  newFIFO(e.clk),
		states: make([]depState, numData),
		redMu:  make([]sync.Mutex, numData),
	}
	m.progress = sync.NewCond(&m.mu)
	m.prog = rp.Worker(0)
	if ctx.Done() != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-ctx.Done():
				m.cancel(fmt.Errorf("centralized: run canceled: %w", context.Cause(ctx)))
			case <-stopWatch:
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(nexec)
	for w := 0; w < nexec; w++ {
		go func(w int) {
			defer wg.Done()
			cell := rp.Worker(w + 1)
			hooks := e.hooks
			var task, idle time.Duration
			t0 := time.Now()
			for {
				// A queue pop is this engine's dependency wait: there is no
				// specific task or access to blame, so the hooks see NoTask
				// and a zero Access.
				if hooks != nil && hooks.OnWaitStart != nil {
					hooks.OnWaitStart(stf.WorkerID(w), stf.NoTask, stf.Access{})
				}
				t, waited := m.ready.pop()
				if waited > 0 { // zero without accounting
					idle += waited
					cell.AddWait(waited)
				}
				if hooks != nil && hooks.OnWaitEnd != nil {
					hooks.OnWaitEnd(stf.WorkerID(w), stf.NoTask, stf.Access{})
				}
				// On a stop a popped task is dropped unrun: the master's
				// drain no longer waits for completion counts.
				if t == nil || m.canceled.Load() {
					break
				}
				cell.SetCurrent(t.id)
				if !execTask(m, t, stf.WorkerID(w), &task) {
					break // the body panicked: not executed, nothing released
				}
				cell.SetCurrent(stf.NoTask)
				cell.CountExecuted()
				m.onComplete(t)
			}
			cell.Exit(task, idle, time.Since(t0))
		}(w)
	}

	// The master unrolls the task flow.
	mt0 := time.Now()
	prog(m)
	m.drain()
	m.ready.close()
	// The master executes no task: its non-idle activity is all runtime
	// management.
	m.prog.Exit(0, m.idle, time.Since(mt0))
	wg.Wait()
	e.End(time.Since(start), !e.clk.noAcct)
	err := m.err
	if err == nil {
		m.mu.Lock()
		err = m.cancelErr
		m.mu.Unlock()
	}
	return err
}

// master is the stf.Submitter driven by the control thread.
type master struct {
	eng    *Engine
	ready  *fifoQueue
	states []depState
	redMu  []sync.Mutex
	next   stf.TaskID
	err    error
	prog   *trace.ProgressCell // master's progress cell (index 0)

	// canceled flags a stop — a context cancellation or a panicking body;
	// cancelErr (guarded by mu) carries the first cause. Executors poll the
	// flag between tasks; the master checks it at every dispatch and
	// inside its waits.
	canceled  atomic.Bool
	cancelErr error

	mu        sync.Mutex
	progress  *sync.Cond
	inflight  int
	submitted int64
	completed int64

	idle time.Duration // accounted master time blocked on window or final drain
}

// cancel stops the run: the master's window wait and drain are woken and
// stop waiting, and executors stop picking up tasks.
func (m *master) cancel(err error) {
	m.mu.Lock()
	if m.cancelErr == nil {
		m.cancelErr = err
	}
	m.mu.Unlock()
	m.canceled.Store(true)
	m.progress.Broadcast()
}

// Worker implements stf.Submitter: the master executes no tasks.
func (m *master) Worker() stf.WorkerID { return stf.MasterWorker }

// NumWorkers implements stf.Submitter (total threads, master included).
func (m *master) NumWorkers() int { return m.eng.workers }

// Submit implements stf.Submitter for closure tasks.
func (m *master) Submit(fn stf.TaskFunc, accesses ...stf.Access) stf.TaskID {
	id := m.next
	m.next++
	t := &task{id: id, fn: fn}
	m.dispatch(t, accesses)
	return id
}

// SubmitTask implements stf.Submitter for recorded tasks.
func (m *master) SubmitTask(rec *stf.Task, k stf.Kernel) stf.TaskID {
	if rec.ID < m.next {
		if m.err == nil {
			m.err = fmt.Errorf("centralized: task ID %d submitted after ID %d", rec.ID, m.next-1)
		}
		return rec.ID
	}
	m.next = rec.ID + 1
	t := &task{id: rec.ID, rec: rec, kern: k}
	m.dispatch(t, rec.Accesses)
	return rec.ID
}

// dispatch performs the centralized per-task management work: respect the
// submission window, derive and register dependencies, and enqueue the task
// if it is already ready.
func (m *master) dispatch(t *task, accesses []stf.Access) {
	if m.err != nil {
		return
	}
	m.mu.Lock()
	if m.eng.window > 0 {
		for m.inflight >= m.eng.window && m.cancelErr == nil {
			m.await()
		}
	}
	if m.cancelErr != nil {
		// Stop submitting: the sticky error makes the remaining
		// submissions of the program no-ops.
		m.err = m.cancelErr
		m.mu.Unlock()
		return
	}
	m.inflight++
	m.submitted++
	m.prog.CountDeclared(1)
	m.mu.Unlock()

	for _, a := range accesses {
		if a.Mode.Commutes() {
			t.reds = insertSorted(t.reds, a.Data)
		}
	}
	// The submission guard (+1) keeps the task from becoming ready while
	// its predecessor edges are still being assembled; wire increments
	// pending itself, before registering each edge.
	t.pending.Store(1)
	wire(m.states, t, accesses)
	if t.pending.Add(-1) == 0 {
		m.ready.push(t)
	}
}

// onComplete is called by an executor after running t: release successors
// and update completion accounting.
func (m *master) onComplete(t *task) {
	for _, s := range t.complete() {
		if s.pending.Add(-1) == 0 {
			m.ready.push(s)
		}
	}
	m.mu.Lock()
	m.inflight--
	m.completed++
	m.mu.Unlock()
	m.progress.Broadcast()
}

// execTask runs one task body under its reduction locks and reports whether
// it completed. A panic stops the run the way a cancellation does, with the
// panic as its error (the unlocks are deferred so a panicking body cannot
// wedge the per-data mutexes): the task is neither counted nor completed,
// so no successor runs over the data it left. The task hooks bracket the
// body here so that a panicking body skips OnTaskEnd, matching the
// in-order engine's contract.
func execTask(m *master, t *task, w stf.WorkerID, taskTime *time.Duration) (ok bool) {
	for _, d := range t.reds {
		m.redMu[d].Lock()
		defer m.redMu[d].Unlock()
	}
	defer func() {
		if r := recover(); r != nil {
			m.cancel(fmt.Errorf("centralized: task %d panicked: %v", t.id, r))
		}
	}()
	h := m.eng.hooks
	if h != nil && h.OnTaskStart != nil {
		h.OnTaskStart(w, t.id)
	}
	runTimed(m, t, w, taskTime)
	if h != nil && h.OnTaskEnd != nil {
		h.OnTaskEnd(w, t.id)
	}
	return true
}

// runTimed runs the body once, charging its duration to *taskTime (nothing
// without accounting).
func runTimed(m *master, t *task, w stf.WorkerID, taskTime *time.Duration) {
	t0 := m.eng.clk.stamp()
	t.run(w)
	*taskTime += m.eng.clk.stamp() - t0
}

// insertSorted inserts d into the (short) sorted slice s.
func insertSorted(s []stf.DataID, d stf.DataID) []stf.DataID {
	i := len(s)
	for i > 0 && s[i-1] > d {
		i--
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = d
	return s
}

// drain blocks until every submitted task has completed, or the run is
// stopped (executors then drop the still-queued tasks).
func (m *master) drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.completed < m.submitted && m.cancelErr == nil {
		m.await()
	}
}

// await is one round of a master wait on the progress condition (m.mu
// held), charged to the master's idle time and wait histogram when the run
// is accounted.
func (m *master) await() {
	t0 := m.eng.clk.stamp()
	m.progress.Wait()
	if !m.eng.clk.noAcct {
		waited := trace.Stamp() - t0
		m.idle += waited
		m.prog.AddWait(waited)
	}
}
