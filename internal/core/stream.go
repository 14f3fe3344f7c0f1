// Streaming sessions: unbounded task flows executed window by window.
//
// The paper's model assumes a finite flow that every worker unrolls in
// full; a session removes that assumption while keeping the decentralized
// protocol intact. The producer records a bounded window of tasks with
// window-local IDs, publishes it, and all workers replay exactly that
// window — record-once-replay-everywhere, so replay divergence between
// workers is impossible by construction within a window, compiled or not,
// and no divergence guard is armed. An epoch barrier
// separates consecutive windows: window k+1 is only published after every
// worker arrived at the end of window k, which makes the concatenation of
// windows sequentially consistent (everything in window k happens-before
// everything in window k+1).
//
// The barrier is also where per-data synchronization state is recycled:
// the last arriver returns the shared counters of the data the window
// touched to idle — zero stores, quiescent by definition: nobody is between
// a get and a terminate — and each worker zeroes its private counters for
// the next window's touched set before replaying it. The state itself is a
// one-shot run's: borrowed from the engine's pool at open and given back at
// Close. State cost is O(numData) for the session plus O(touched) work per
// window — independent of how many tasks have flowed through, which is the
// whole point.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// WindowRun describes one window handed to a session's workers.
type WindowRun struct {
	// Tasks is the window's task table, IDs window-local (0..len-1). The
	// slice may alias a reusable recording buffer: the session guarantees it
	// is not read after the window's epoch barrier, so the producer may
	// reset the buffer as soon as the *next* Flush returns.
	Tasks []stf.Task
	// Kernel dispatches every task of the window (closure tasks are wrapped
	// into a kernel by the public layer). Required.
	Kernel stf.Kernel
	// Compiled optionally carries a program compiled from this window's
	// shape (same access structure, same mapping, same worker count). When
	// set, workers interpret its micro-op streams against Tasks; when nil,
	// workers replay Tasks through the closure protocol path (which resolves
	// SharedWorker ownership dynamically; such windows do not steal). On an
	// engine with stealing armed the window runs the program's canonical
	// form, whatever was elided from the one given, and steals by the
	// program's own tables (Engine.compiledFlow) — a session holds nothing
	// per shape, so the caller's shape cache alone decides what stays alive.
	Compiled *stf.CompiledProgram
	// Touched lists the data objects the window accesses; exactly their
	// state is recycled at the window's epoch boundary.
	Touched []stf.DataID
}

// windowSpec is the published form of a window: the flow every worker
// replays plus the per-epoch machinery (the touched set to recycle, abort
// latch, claim table for SharedWorker and stolen tasks, timeout timer and
// the channel its callback closes once it has run). Read-only once
// published. A spec with closed set is the shutdown marker, not a window.
type windowSpec struct {
	flow    flow
	touched []stf.DataID
	epoch   uint64
	abort   *abortState
	claims  *claimTable
	timer   *time.Timer
	fired   chan struct{}
	closed  bool
}

var errSessionClosed = errors.New("core: session is closed")

// Session executes an unbounded flow of windows over one engine's workers.
// The worker goroutines and the run state — per-data shared cells,
// per-worker local arenas, submitters — persist for the session's lifetime;
// windows borrow them between epoch barriers. Flush/Drain/Close must be
// called from a single producer goroutine. A failed window poisons the
// session: the error is sticky and no further windows run.
type Session struct {
	eng     *Engine
	numData int
	timeout time.Duration
	st      *runState
	prog    *trace.ProgressTable

	pub  epochGate // windows published to the workers
	done epochGate // windows fully executed (barrier passed)

	spec      *windowSpec // current window; owned by the flusher between barriers
	published uint64

	arrivals atomic.Int32
	wg       sync.WaitGroup

	mu     sync.Mutex
	err    error
	closed bool
}

// OpenSession starts a streaming session over numData data objects. The
// engine's workers are spawned immediately and owned by the session until
// Close; Run and further OpenSession calls are rejected while it is open.
// timeout > 0 bounds each window's execution (a window exceeding it is
// aborted and poisons the session). The mapping is snapshotted at open:
// SetMapping during a session does not affect it.
//
// Sessions do not arm the stall watchdog (a window with no traffic is
// indistinguishable from a stall at this layer — use timeout for bounded
// windows), do not take checkpoints and ignore Options.Resume: those are
// finite-flow notions.
func (e *Engine) OpenSession(numData int, timeout time.Duration) (*Session, error) {
	if numData < 0 {
		return nil, errors.New("core: negative numData")
	}
	if !e.sessionActive.CompareAndSwap(false, true) {
		return nil, errors.New("core: engine already has an open streaming session")
	}
	rp := trace.NewProgressTable(e.workers)
	e.progress.Store(rp)
	ss := &Session{
		eng:     e,
		numData: numData,
		timeout: timeout,
		st:      e.borrow(numData, rp, e.spinLimit),
		prog:    rp,
	}
	ss.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go ss.worker(w)
	}
	return ss, nil
}

// Flush publishes one window. It blocks until the previous window has fully
// completed (the epoch barrier), then hands the new window to the workers
// and returns immediately — the window executes while the producer records
// the next one, so recording and execution pipeline with exactly one
// window in flight. An empty window is a no-op. On a poisoned session the
// sticky error is returned and the window is dropped.
func (ss *Session) Flush(wr WindowRun) error {
	ss.mu.Lock()
	closed := ss.closed
	ss.mu.Unlock()
	if closed {
		return errSessionClosed
	}
	ss.done.Wait(ss.published)
	if err := ss.Err(); err != nil {
		return err
	}
	if len(wr.Tasks) == 0 {
		return nil
	}
	if wr.Kernel == nil {
		return errors.New("core: window has no kernel")
	}
	if cp := wr.Compiled; cp != nil {
		if cp.Workers != ss.eng.workers {
			return fmt.Errorf("core: window program compiled for %d workers, session has %d", cp.Workers, ss.eng.workers)
		}
		if len(cp.Tasks) != len(wr.Tasks) {
			return fmt.Errorf("core: window has %d tasks, its compiled shape %d", len(wr.Tasks), len(cp.Tasks))
		}
		if cp.NumData != ss.numData {
			return fmt.Errorf("core: window shape compiled over %d data, session has %d", cp.NumData, ss.numData)
		}
	}
	ss.published++
	spec := &windowSpec{
		flow:    ss.eng.compiledFlow(wr.Compiled, wr.Tasks, wr.Kernel),
		touched: wr.Touched,
		epoch:   ss.published,
		abort:   &abortState{shared: ss.st.shared[:ss.numData]},
		claims:  &claimTable{},
	}
	if ss.timeout > 0 {
		ab, d, fired := spec.abort, ss.timeout, make(chan struct{})
		spec.fired = fired
		spec.timer = time.AfterFunc(d, func() {
			defer close(fired)
			ab.raise(fmt.Errorf("core: stream window exceeded its %v timeout", d), true)
		})
	}
	if h := ss.eng.hooks; h != nil && h.OnRunStart != nil {
		h.OnRunStart(ss.eng.workers, ss.numData)
	}
	ss.spec = spec
	ss.pub.Advance()
	return nil
}

// Drain blocks until every published window has completed, then reports the
// session's sticky error (nil if all windows succeeded so far).
func (ss *Session) Drain() error {
	ss.done.Wait(ss.published)
	return ss.Err()
}

// Close drains the session, stops the worker goroutines and releases the
// engine. Idempotent; returns the session's sticky error.
func (ss *Session) Close() error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return ss.err
	}
	ss.closed = true
	ss.mu.Unlock()
	// Windows always reach their barrier (even failed ones), so this wait
	// terminates unless a task body is truly wedged — the same contract as
	// Run without the watchdog.
	ss.done.Wait(ss.published)
	ss.spec = &windowSpec{epoch: ss.published + 1, closed: true}
	ss.pub.Advance()
	ss.wg.Wait()
	ss.pub.Close()
	ss.done.Close()
	ss.prog.Finish()
	// The workers are joined and every window's timer callback was joined
	// at its barrier (arrive): the state goes back to the pool.
	ss.eng.giveBack(ss.st)
	ss.eng.sessionActive.Store(false)
	return ss.Err()
}

// Err returns the session's sticky error: the verdict of the first failed
// window, wrapped with its epoch number.
func (ss *Session) Err() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.err
}

func (ss *Session) fail(err error) {
	ss.mu.Lock()
	if ss.err == nil {
		ss.err = err
	}
	ss.mu.Unlock()
}

// worker is one session worker goroutine: wait for the next epoch's window,
// replay it, arrive at the barrier, repeat until the shutdown spec (or a
// torn-down gate) is observed.
func (ss *Session) worker(w int) {
	defer ss.wg.Done()
	s := ss.st.subs[w]
	for next := uint64(1); ; next++ {
		if !ss.pub.Wait(next) {
			return // gate closed under us: session torn down
		}
		spec := ss.spec
		if spec.closed {
			return
		}
		ss.runWindow(s, spec)
		ss.arrive(spec)
	}
}

// runWindow replays one window on one worker: reset the worker's replay
// cursor and per-window plumbing, recycle its private state for the data
// this window touches, then replay the window's flow (which drains its
// steals before returning, hence before the barrier arrival).
func (ss *Session) runWindow(s *submitter, spec *windowSpec) {
	s.next = 0
	s.err = nil
	s.abort = spec.abort
	s.claims = spec.claims
	for _, d := range spec.touched {
		s.local[d].recycle()
	}
	s.replay(&spec.flow)
}

// arrive is the epoch barrier. The last worker to arrive owns the epoch's
// epilogue: join the window's timeout callback if it fired (it wakes the
// session's data gates, so it must be gone before the state can go back to
// the pool), assemble the window verdict from every worker's state (their
// writes happen-before their arrival increments, all observed by the last
// arriver), recycle the touched shared state on success, and advance the
// done gate — which both unblocks the flusher and carries the epilogue's
// writes to whichever worker starts the next window first.
func (ss *Session) arrive(spec *windowSpec) {
	if int(ss.arrivals.Add(1)) < ss.eng.workers {
		return
	}
	ss.arrivals.Store(0)
	if spec.timer != nil && !spec.timer.Stop() {
		<-spec.fired
	}
	if err := verdict(ss.st.subs, spec.abort); err != nil {
		ss.fail(fmt.Errorf("core: stream window %d: %w", spec.epoch, err))
	} else {
		// Quiescent recycle: every worker is past its last terminate on this
		// window's data and parked-waiter registration is zero (a successful
		// window leaves no waiter behind). Skipped on failure — the session
		// is poisoned, and whoever borrows the state after it clears it.
		for _, d := range spec.touched {
			ss.st.shared[d].recycle()
		}
	}
	if h := ss.eng.hooks; h != nil && h.OnRunEnd != nil {
		h.OnRunEnd(ss.Err())
	}
	ss.done.Advance()
}
