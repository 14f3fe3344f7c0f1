package rio

import (
	"errors"
	"fmt"

	"rio/internal/core"
	"rio/internal/stf"
)

// Streamer is implemented by runtimes that execute unbounded task flows as
// streaming sessions. The in-order *Engine implements it natively: one
// per-data state arena persists across the whole stream, each window runs
// as one run over it (its workers launched by the Flush that publishes it
// and joined before the next window starts), and repeated window shapes hit
// a compiled-program cache keyed by the window's shape hash.
// New attaches a fallback implementation to every other model (each window
// runs as one ordinary engine run), so OpenStream works on any Runtime: the
// stream-windows ledger workload checks its windows against a session over
// rio.Sequential, and TestStreamFallbackOracleStress drives the fallback
// on the centralized and sequential models.
type Streamer interface {
	// Stream opens a streaming session over numData data objects. The
	// returned Stream must be Closed.
	Stream(numData int, opts StreamOptions) (*Stream, error)
}

// StreamOptions configures a streaming session.
type StreamOptions struct {
	// MaxWindow caps the tasks recorded per window: reaching it triggers an
	// automatic Flush. 0 means DefaultMaxWindow; negative disables
	// auto-flushing (every window boundary is an explicit Flush).
	MaxWindow int
	// Kernel dispatches tasks submitted through Stream.Task (the
	// allocation-free path). Streams using only Submit may leave it nil.
	Kernel Kernel
	// MaxShapes bounds the in-order session's compiled-shape cache
	// (0 = DefaultMaxShapes, negative = unbounded). On overflow an
	// arbitrary cached shape is evicted — the cache is a performance
	// device keyed by shape hash, so eviction only costs a recompile.
	MaxShapes int
}

const (
	// DefaultMaxWindow is the automatic Flush threshold of a stream.
	DefaultMaxWindow = 1024
	// DefaultMaxShapes bounds the per-stream compiled-shape cache.
	DefaultMaxShapes = 64
)

var errStreamClosed = errors.New("rio: stream is closed")

// Stream is a streaming session: an unbounded task flow submitted window
// by window. Submit and Task record tasks into the current window; Flush
// publishes it (window k is joined before window k+1 starts, so everything
// in window k happens-before everything in window k+1, and the flow as a
// whole stays sequentially consistent); Drain waits for every published
// window; Close drains and releases the engine.
//
// Errors are sticky, bufio.Writer-style: the first failed window poisons
// the stream, later Submits are dropped, and the error surfaces from every
// subsequent Flush/Drain/Close. A Stream is not safe for concurrent use —
// one producer goroutine records and flushes.
type Stream struct {
	numData   int
	opts      StreamOptions
	maxWindow int
	maxShapes int

	// In-order (native) backend.
	eng     *Engine
	sess    *core.Session
	mapping Mapping // snapshot at open; the cached shapes bake it in
	// shapes caches one compiled program per window shape, keyed by
	// Window.Fingerprint. A nil program is a negative entry: the shape cannot
	// compile under the session's mapping (SharedWorker tasks), so its
	// windows take closure replay.
	shapes                 map[[2]uint64]*stf.CompiledProgram
	shapeHits, shapeMisses int64

	// Fallback backend: every window is one synchronous call of run.
	run func(numData int, prog Program) error

	win       [2]*stf.Window // double buffer: record k+1 while k executes
	cur       int
	submitted int64
	windows   int64
	err       error
	closed    bool
}

func newStream(numData int, o StreamOptions) (*Stream, error) {
	if numData < 0 {
		return nil, errors.New("rio: negative numData")
	}
	s := &Stream{numData: numData, opts: o, maxWindow: o.MaxWindow, maxShapes: o.MaxShapes}
	if s.maxWindow == 0 {
		s.maxWindow = DefaultMaxWindow
	}
	if s.maxShapes == 0 {
		s.maxShapes = DefaultMaxShapes
	}
	s.win[0] = stf.NewWindow(numData)
	s.win[1] = stf.NewWindow(numData)
	return s, nil
}

// Stream implements Streamer natively: the session holds the engine's
// per-data state for its whole lifetime, and repeated window
// shapes replay through cached compiled programs. Options.Timeout bounds
// each window; the engine's mapping is snapshotted at open (SetMapping
// during a session does not affect it). While the stream is open, Run and
// RunGraph are rejected — Close releases the engine.
//
// Preflight analysis does not apply to stream windows: a window routinely
// reads data written by an earlier window, which single-window analysis
// would misdiagnose as a read of never-written data.
func (e *Engine) Stream(numData int, opts StreamOptions) (*Stream, error) {
	s, err := newStream(numData, opts)
	if err != nil {
		return nil, err
	}
	sess, err := e.core.OpenSession(numData, e.opts.Timeout)
	if err != nil {
		return nil, err
	}
	s.mapping = e.mapping
	s.eng = e
	s.sess = sess
	s.shapes = make(map[[2]uint64]*stf.CompiledProgram)
	return s, nil
}

// newRuntimeStream opens a fallback stream over any engine's run function:
// each window executes as one ordinary synchronous run. This keeps the
// Stream semantics (windowed submission, one window at a time, sticky errors)
// identical across models, with the per-window cost profile of the
// underlying engine (a centralized window pays a full unroll, dependency
// derivation and goroutine fan-out). The stream-windows ledger workload's
// sequential oracle and TestStreamFallbackOracleStress run on it.
func newRuntimeStream(run func(numData int, prog Program) error, numData int, opts StreamOptions) (*Stream, error) {
	s, err := newStream(numData, opts)
	if err != nil {
		return nil, err
	}
	s.run = run
	return s, nil
}

// OpenStream opens a streaming session over rt: natively when rt
// implements Streamer, through the per-window fallback otherwise.
func OpenStream(rt Runtime, numData int, opts StreamOptions) (*Stream, error) {
	if st, ok := rt.(Streamer); ok {
		return st.Stream(numData, opts)
	}
	return newRuntimeStream(rt.Run, numData, opts)
}

// Submit records a closure task accessing the given data into the current
// window and returns its flow-global ID (informational; windows replay by
// position). The body runs when the window is flushed. On a poisoned or
// closed stream the task is dropped and NoTask returned — the sticky error
// surfaces from the next Flush/Drain/Close.
func (s *Stream) Submit(fn TaskFunc, accesses ...Access) TaskID {
	if s.closed || s.err != nil {
		return stf.NoTask
	}
	if fn == nil {
		s.fail(errors.New("rio: Stream.Submit: nil task body"))
		return stf.NoTask
	}
	id := TaskID(s.submitted)
	if _, err := s.win[s.cur].Add(fn, 0, 0, 0, 0, accesses); err != nil {
		s.fail(fmt.Errorf("rio: stream task %d: %w", id, err))
		return stf.NoTask
	}
	s.submitted++
	s.maybeAutoFlush()
	return id
}

// Task records a kernel-dispatched task (the allocation-free path): the
// session's StreamOptions.Kernel receives a Task carrying these selectors
// and accesses. Requires StreamOptions.Kernel.
func (s *Stream) Task(kernel, i, j, k int, accesses ...Access) TaskID {
	if s.closed || s.err != nil {
		return stf.NoTask
	}
	if s.opts.Kernel == nil {
		s.fail(errors.New("rio: Stream.Task requires StreamOptions.Kernel"))
		return stf.NoTask
	}
	id := TaskID(s.submitted)
	if _, err := s.win[s.cur].Add(nil, kernel, i, j, k, accesses); err != nil {
		s.fail(fmt.Errorf("rio: stream task %d: %w", id, err))
		return stf.NoTask
	}
	s.submitted++
	s.maybeAutoFlush()
	return id
}

func (s *Stream) maybeAutoFlush() {
	if s.maxWindow > 0 && s.win[s.cur].Len() >= s.maxWindow {
		// An error here is sticky and surfaces on the next explicit
		// Flush/Drain/Close, like every other streaming failure.
		_ = s.Flush()
	}
}

// Flush closes the current window and publishes it for execution. On the
// native backend Flush joins the *previous* window (waits until it
// completed), launches the new window's workers and returns while it
// executes — recording and execution pipeline with one window in flight.
// On the fallback backend the window runs synchronously. Flushing an empty
// window is a no-op.
func (s *Stream) Flush() error {
	if s.closed {
		return errStreamClosed
	}
	w := s.win[s.cur]
	if s.err != nil || w.Len() == 0 {
		return s.err
	}
	if err := s.flushWindow(w); err != nil {
		s.fail(err)
		return s.err
	}
	s.windows++
	// Swap the double buffer: the other buffer's window has completed (the
	// join inside this Flush proved it), so its storage is free to reuse.
	s.cur ^= 1
	s.win[s.cur].Reset()
	return nil
}

func (s *Stream) flushWindow(w *stf.Window) error {
	tasks, bodies := w.Tasks(), w.Bodies()
	kern := windowKernel(bodies, s.opts.Kernel)
	if s.sess != nil {
		cp, err := s.shapeFor(w)
		if err != nil {
			return err
		}
		return s.sess.Flush(core.WindowRun{Tasks: tasks, Kernel: kern, Compiled: cp, Touched: w.Touched()})
	}
	prog := func(sub Submitter) {
		for i := range tasks {
			if b := bodies[i]; b != nil {
				sub.Submit(b, tasks[i].Accesses...)
			} else {
				sub.SubmitTask(&tasks[i], kern)
			}
		}
	}
	if err := s.run(s.numData, prog); err != nil {
		return fmt.Errorf("rio: stream window %d: %w", s.windows+1, err)
	}
	return nil
}

// shapeFor resolves the window's compiled shape through the shape cache:
// windows whose access structure repeats — the steady state of a periodic
// pipeline — compile once and replay the cached micro-op streams against
// each window's own task table.
//
// The key is a fast 128-bit mix, not a collision-resistant digest, so a
// positive hit is confirmed against the cached program's own task table
// before its streams replay this window; a mismatch is a miss whose compile
// replaces the entry. A negative entry needs no confirmation: closure replay
// is correct for every window.
func (s *Stream) shapeFor(w *stf.Window) (*stf.CompiledProgram, error) {
	fp := w.Fingerprint()
	cp, cached := s.shapes[fp]
	if cached && (cp == nil || w.SameShape(cp.Tasks)) {
		s.shapeHits++
		return cp, nil
	}
	s.shapeMisses++
	cp, err := s.compileShape(w)
	if err != nil {
		return nil, err
	}
	if !cached && s.maxShapes > 0 && len(s.shapes) >= s.maxShapes {
		for k := range s.shapes {
			delete(s.shapes, k)
			break
		}
	}
	s.shapes[fp] = cp
	return cp, nil
}

// compileShape lowers one window shape under the session's mapping
// snapshot. The graph is deep-copied out of the reusable window buffer
// first: compiled programs alias their source graph's task table, and a
// cached program must not alias storage the next window overwrites.
// Partial mappings (SharedWorker) yield the negative entry, a nil program —
// those windows replay through the closure path, which resolves ownership
// dynamically.
func (s *Stream) compileShape(w *stf.Window) (*stf.CompiledProgram, error) {
	for i := range w.Tasks() {
		o := s.mapping(TaskID(i))
		if o == SharedWorker {
			return nil, nil
		}
		if p := s.eng.NumWorkers(); o < 0 || int(o) >= p {
			return nil, fmt.Errorf("rio: stream mapping(%d) = %d out of range [0,%d)", i, o, p)
		}
	}
	return s.eng.lower(w.CloneGraph(fmt.Sprintf("stream-shape-%d", s.shapeMisses)), s.mapping)
}

// windowKernel dispatches a window's recorded tasks: closure tasks run
// their body, kernel tasks go through the stream's Kernel. Task IDs are
// window-local, so the body table is indexed directly.
func windowKernel(bodies []stf.TaskFunc, k Kernel) Kernel {
	return func(t *stf.Task, w WorkerID) {
		if b := bodies[t.ID]; b != nil {
			b()
			return
		}
		k(t, w)
	}
}

// Drain flushes the pending window and blocks until every published window
// has completed, then reports the stream's sticky error.
func (s *Stream) Drain() error {
	if s.closed {
		return errStreamClosed
	}
	if err := s.Flush(); err != nil {
		return err
	}
	if s.sess != nil {
		if err := s.sess.Drain(); err != nil {
			s.fail(err)
		}
	}
	return s.err
}

// Close drains the stream and releases the engine for ordinary runs.
// Idempotent; returns the stream's sticky error. A Stream must be Closed —
// an un-Closed native stream keeps the engine's run state, so the engine
// rejects every Run and Stream after it.
func (s *Stream) Close() error {
	if s.closed {
		return s.err
	}
	derr := s.Drain()
	if s.sess != nil {
		if cerr := s.sess.Close(); cerr != nil && derr == nil {
			s.fail(cerr)
		}
	}
	s.closed = true
	return s.err
}

// Err returns the stream's sticky error without flushing or draining.
func (s *Stream) Err() error { return s.err }

// Submitted reports the number of tasks recorded over the stream's
// lifetime (including the pending window).
func (s *Stream) Submitted() int64 { return s.submitted }

// Windows reports the number of windows flushed so far.
func (s *Stream) Windows() int64 { return s.windows }

// Pending reports the number of tasks recorded in the not-yet-flushed
// window.
func (s *Stream) Pending() int {
	return s.win[s.cur].Len()
}

// CacheStats reports the native session's compiled-shape cache counters
// (all zero on a fallback stream): hits and misses are per flushed window,
// entries is the current cache size.
func (s *Stream) CacheStats() (hits, misses int64, entries int) {
	return s.shapeHits, s.shapeMisses, len(s.shapes)
}

func (s *Stream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}
