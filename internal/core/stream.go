// Streaming sessions: unbounded task flows executed window by window.
//
// The paper's model assumes a finite flow that every worker unrolls in
// full; a session removes that assumption while keeping the decentralized
// protocol intact. The producer records a bounded window of tasks with
// window-local IDs, and the window runs as one run over the session's
// borrowed state: every worker replays exactly that window —
// record-once-replay-everywhere, so replay divergence between workers is
// impossible by construction within a window, compiled or not, and no
// divergence guard is armed. A window's workers are launched by the Flush
// that publishes it and joined by the next Flush (or Drain, or Close): the
// last worker out closes the window's done channel, the producer receives,
// and only then launches window k+1's workers. That chain is what makes the
// concatenation of windows sequentially consistent (everything in window k
// happens-before everything in window k+1).
//
// The join is also where per-data synchronization state is recycled: the
// producer returns the shared counters of the data the window touched to
// idle — zero stores, quiescent by definition: no worker of the window
// exists any more — and zeroes every worker's private counters for the next
// window's touched set before launching it. The state itself is a one-shot
// run's: borrowed from the engine's pool at open and given back at Close.
// State cost is O(numData) for the session plus O(touched) work per window —
// independent of how many tasks have flowed through, which is the whole
// point.
package core

import (
	"errors"
	"fmt"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// WindowRun describes one window handed to a session's workers.
type WindowRun struct {
	// Tasks is the window's task table, IDs window-local (0..len-1). The
	// slice may alias a reusable recording buffer: the session does not read
	// it once the window is joined, so the producer may reset the buffer as
	// soon as the *next* Flush returns.
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
	// state is recycled around the window.
	Touched []stf.DataID
}

var errSessionClosed = errors.New("core: session is closed")

// Session executes an unbounded flow of windows over one engine. The run
// state — per-data shared cells, per-worker local arenas, submitters — is
// borrowed for the session's lifetime; each window is one run over it, with
// its own worker goroutines, and between windows no goroutine of the
// session exists. Flush, Drain, Close and Err must be called from a single
// producer goroutine. A failed window poisons the session: the error is
// sticky and no further windows run.
type Session struct {
	eng     *Engine
	numData int
	timeout time.Duration
	st      *runState
	prog    *trace.ProgressTable

	// The window in flight (st.done non-nil until join): its number, the
	// data it touches, and its timeout timer with the channel the timer's
	// callback closes once it has run.
	window  uint64
	touched []stf.DataID
	timer   *time.Timer
	fired   chan struct{}

	err    error
	closed bool
}

// OpenSession opens a streaming session over numData data objects: it
// borrows the engine's run state until Close and starts no goroutine; Run
// and further OpenSession calls are rejected while it is open. timeout > 0
// bounds each window's execution (a window exceeding it is aborted and
// poisons the session). The mapping is snapshotted at open: SetMapping
// during a session does not affect it.
//
// Sessions do not arm the stall watchdog: a window with no traffic is
// indistinguishable from a stall at this layer (use timeout for bounded
// windows).
func (e *Engine) OpenSession(numData int, timeout time.Duration) (*Session, error) {
	if numData < 0 {
		return nil, errors.New("core: negative numData")
	}
	if !e.sessionActive.CompareAndSwap(false, true) {
		return nil, errors.New("core: engine already has an open streaming session")
	}
	rp := e.Begin(e.workers)
	return &Session{
		eng:     e,
		numData: numData,
		timeout: timeout,
		st:      e.borrow(numData, e.workers, rp, e.spinSeed),
		prog:    rp,
	}, nil
}

// Flush publishes one window. It first joins the previous window, then
// launches the new window's workers and returns immediately — the window
// executes while the producer records the next one, so recording and
// execution pipeline with exactly one window in flight. An empty window is a
// no-op. On a poisoned session the sticky error is returned and the window
// is dropped.
func (ss *Session) Flush(wr WindowRun) error {
	if ss.closed {
		return errSessionClosed
	}
	ss.join()
	if ss.err != nil {
		return ss.err
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
	// Reset the per-window plumbing in place: no goroutine of the previous
	// window exists, and the launch below orders these writes before the
	// new workers start.
	st := ss.st
	st.abort = abortState{shared: st.shared[:ss.numData]}
	st.claims.reset()
	for _, s := range st.subs {
		s.next, s.err = 0, nil
		for _, d := range wr.Touched {
			s.local[d].recycle()
		}
	}
	ss.window++
	ss.touched = wr.Touched
	if h := ss.eng.hooks; h != nil && h.OnRunStart != nil {
		h.OnRunStart(ss.eng.workers, ss.numData)
	}
	if ss.timeout > 0 {
		ab, d, fired := &st.abort, ss.timeout, make(chan struct{})
		ss.fired = fired
		ss.timer = time.AfterFunc(d, func() {
			defer close(fired)
			ab.raise(fmt.Errorf("core: stream window exceeded its %v timeout", d), true)
		})
	}
	// Every window spawns all p workers: the producer must stay free to
	// record the next window while this one runs.
	st.launch(ss.eng.compiledFlow(wr.Compiled, wr.Tasks, wr.Kernel), len(st.subs), false)
	return nil
}

// Drain blocks until every published window has completed, then reports the
// session's sticky error (nil if all windows succeeded so far).
func (ss *Session) Drain() error {
	ss.join()
	return ss.err
}

// Close joins the window in flight, gives the run state back and releases
// the engine. Idempotent; returns the session's sticky error. Windows always
// end (even failed ones), so Close returns unless a task body is truly
// wedged — the same contract as Run without the watchdog.
func (ss *Session) Close() error {
	if ss.closed {
		return ss.err
	}
	ss.closed = true
	ss.join()
	ss.prog.Finish()
	ss.eng.giveBack(ss.st)
	ss.eng.sessionActive.Store(false)
	return ss.err
}

// Err returns the session's sticky error: the verdict of the first failed
// window, wrapped with its window number. Like Flush, it is a producer-side
// call.
func (ss *Session) Err() error { return ss.err }

// join waits for the window in flight, if any, and runs its epilogue on the
// producer: join the timeout callback if it fired (it wakes the session's
// data gates, so it must be gone before the state is reused), assemble the
// window verdict from every worker's state, recycle the touched shared
// cells on success and fire OnRunEnd.
func (ss *Session) join() {
	st := ss.st
	if st.done == nil {
		return
	}
	<-st.done
	st.done = nil
	if ss.timer != nil && !ss.timer.Stop() {
		<-ss.fired
	}
	ss.timer = nil
	if err := verdict(st.subs, &st.abort); err != nil {
		ss.err = fmt.Errorf("core: stream window %d: %w", ss.window, err)
	} else {
		// Skipped on failure — the session is poisoned, and whoever borrows
		// the state after it clears it.
		for _, d := range ss.touched {
			st.shared[d].recycle()
		}
	}
	if h := ss.eng.hooks; h != nil && h.OnRunEnd != nil {
		h.OnRunEnd(ss.err)
	}
}
