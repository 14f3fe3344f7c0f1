package core

import (
	"context"
	"errors"
	"fmt"

	"rio/internal/stf"
)

// RunCompiled executes a compiled program (stf.Compile) with kernel k.
// This is the fast replay path: instead of every worker re-unrolling the
// task flow through the Submitter interface, each worker interprets its
// pre-resolved instruction stream — the replay term n·t_r of the paper's
// cost model (eq. 2) was paid once at compile time. The synchronization
// protocol (Algorithms 1 and 2) and its shared state are exactly those of
// the closure path; only the flow-unrolling layer above them changes.
func (e *Engine) RunCompiled(cp *stf.CompiledProgram, k stf.Kernel) error {
	return e.RunCompiledContext(context.Background(), cp, k)
}

// RunCompiledContext is RunCompiled with cancellation, with the semantics
// of RunContext. The engine's own mapping is NOT consulted — the ownership
// baked into the streams at compile time governs, and so does the width:
// a program compiled for w ≤ p workers runs on w of them, and Stats and
// Progress then report w workers (run width, the parametric resource
// allocation of the paper's §3). An engine armed with a steal policy takes
// only programs of exactly its own width, because its steal tables are
// sized by Workers.
//
// The replay-divergence guard never runs on this path: all workers'
// streams derive from the same recorded graph, so replay divergence is
// impossible by construction.
func (e *Engine) RunCompiledContext(ctx context.Context, cp *stf.CompiledProgram, k stf.Kernel) error {
	if cp == nil {
		return errors.New("core: nil compiled program")
	}
	if k == nil {
		return errors.New("core: nil kernel")
	}
	switch {
	case cp.Workers < 1 || cp.Workers > e.workers:
		return fmt.Errorf("core: program compiled for %d workers run on an engine with %d", cp.Workers, e.workers)
	case e.steal != nil && cp.Workers != e.workers:
		return fmt.Errorf("core: program compiled for %d workers run on an engine with %d armed to steal, which runs only programs of its own width", cp.Workers, e.workers)
	}
	return e.run(ctx, cp.NumData, e.compiledFlow(cp, cp.Tasks, k))
}

// recordCompiled is the front half of an armed engine's closure Run: it
// records prog once — every task's accesses and body, no body executed —
// and compiles the recording under the engine's current mapping. The
// returned kernel dispatches each task to the body it was submitted with.
// It returns a nil program when the recording is not one dense flow every
// worker would replay alike (a §3.5-pruned or out-of-order SubmitTask
// sequence) or does not compile (SharedWorker or out-of-range owners,
// malformed accesses): the caller then takes plain closure replay, which
// handles the former two and reports the rest as it always has.
func (e *Engine) recordCompiled(numData int, prog stf.Program) (cp *stf.CompiledProgram, k stf.Kernel) {
	r := &flowRecorder{g: stf.NewGraph("recorded", numData), workers: e.workers}
	defer func() {
		if recover() != nil {
			// A panicking submission closure: closure replay turns it into
			// the run's error on a worker goroutine.
			cp, k = nil, nil
		}
	}()
	prog(r)
	if r.gap {
		return nil, nil
	}
	// Canonical: the recording exists to be stolen from.
	cp, err := stf.CompileCanonical(r.g, *e.mapping.Load(), e.workers, nil)
	if err != nil {
		return nil, nil
	}
	bodies := r.bodies
	return cp, func(t *stf.Task, w stf.WorkerID) { bodies[t.ID].run(w) }
}

// flowRecorder is the stf.Submitter recordCompiled unrolls a program
// against: the flow's structure goes into g, each task's body into the
// parallel bodies table.
type flowRecorder struct {
	g       *stf.Graph
	bodies  []body
	workers int
	gap     bool // a SubmitTask ID was not the next dense one
}

func (r *flowRecorder) Submit(fn stf.TaskFunc, accesses ...stf.Access) stf.TaskID {
	r.bodies = append(r.bodies, body{fn: fn})
	// Copied: the graph outlives the call, the caller's slice may not.
	return r.g.Add(stf.RecordedClosure, 0, 0, 0, append([]stf.Access(nil), accesses...)...)
}

func (r *flowRecorder) SubmitTask(t *stf.Task, k stf.Kernel) stf.TaskID {
	if t.ID != stf.TaskID(len(r.g.Tasks)) {
		r.gap = true
		return t.ID
	}
	r.bodies = append(r.bodies, body{t: t, k: k})
	return r.g.Add(t.Kernel, t.I, t.J, t.K, t.Accesses...)
}

func (r *flowRecorder) Worker() stf.WorkerID { return stf.MasterWorker }
func (r *flowRecorder) NumWorkers() int      { return r.workers }

// runStreamTasks is the compiled execution loop: a flat walk over this
// worker's micro-op stream, decoded word by word (stf's microop.go). The
// loop keeps the open group's task in a register — OpTask and OpExec set
// it — and every data micro-op reads its task from there: the write ID of
// a declare_write or terminate_write, a get's diagnostics, the armed
// claim. Declares and terminates call the localState/sharedState protocol
// primitives directly; gets reuse the same escalating waits as closure
// replay (so the abort latch and a stopped run's diagnosis behave
// identically), and hand them no access mode: a wait that needs one (for
// the hooks, or because the run stopped it) reads it from the task table
// (declaredMode). OpExec polls the abort flag once per task,
// mirroring the per-submission poll of the closure path. A task's
// completion is published in the store that starts the next task when the
// next micro-op is an exec, and on its own otherwise (exec): a bare-exec
// stream pays one progress store per task. A program without reductions
// (stf.HasReductions) has exec skip its scan for reduction locks.
//
// The stream is interpreted against an explicit task table. For a one-shot
// run the table is cp.Tasks itself; streaming sessions pass the current
// window's tasks instead — a cached program carries only the window's
// *shape* (access structure and ownership), while kernel selectors,
// coordinates and closure bodies vary window to window. len(tasks) must
// equal len(cp.Tasks); the session enforces this via the shape fingerprint
// before publishing a window.
//
// On an armed replay (s.steal != nil) an owned task is claimed at its first
// micro-op — before the gets, which is load-bearing: a stolen-and-executed
// task's terminates have already advanced the shared counters past the
// values the owner's gets would wait for, so the owner must decide *before*
// waiting. On a lost claim the owner skips the task's gets and exec and
// turns its terminates into the local declares it would have performed for
// any foreign task. An unarmed replay pays one register test per micro-op
// for this and never touches the claim table.
func (s *submitter) runStreamTasks(cp *stf.CompiledProgram, tasks []stf.Task, k stf.Kernel) {
	stream := cp.Streams[s.worker]
	armed := s.steal != nil
	reds := stf.HasReductions(cp)
	task := int32(-1)    // the task register
	claimed := int32(-1) // owned task the claim verdict below applies to
	lost := false        // claimed was stolen
	for i := 0; i < len(stream); i++ {
		w := stream[i]
		if w.Op() == stf.OpTask && i+1 < len(stream) {
			// A group's task word and its first micro-op in one step: one
			// dispatch per micro-op, not per word.
			task, i = w.Arg(), i+1
			w = stream[i]
		}
		op, arg := w.Op(), w.Arg()
		if armed && op >= stf.OpGetRead && op <= stf.OpTermRed {
			// A micro-op of an owned task (access-free tasks open with their
			// exec).
			if op == stf.OpExec {
				task = arg
			}
			if task != claimed {
				claimed, lost = task, !s.claims.tryClaim(int64(task))
				if lost {
					// A stolen own task is accounted like a foreign one; the
					// compile-time Declared charge below never includes own
					// tasks.
					s.prog.CountDeclared(1)
				}
			}
			if lost {
				if op < stf.OpTermRead {
					continue // the stolen task's gets and exec
				}
				op -= stf.OpTermRead - stf.OpDeclareRead // terminate_x → declare_x
			}
		}
		switch op {
		case stf.OpTask: // a stream's last word, or a task word repeated
			task = arg
		case stf.OpDeclareRead:
			s.local[arg].declareRead()
		case stf.OpDeclareWrite:
			s.local[arg].declareWrite(int64(task))
		case stf.OpDeclareRed:
			s.local[arg].declareRed()
		case stf.OpGetRead:
			s.getRead(stf.TaskID(task), stf.Access{Data: stf.DataID(arg)})
			if s.err != nil {
				return // aborted while waiting
			}
		case stf.OpGetWrite:
			s.getWrite(stf.TaskID(task), stf.Access{Data: stf.DataID(arg)})
			if s.err != nil {
				return
			}
		case stf.OpGetRed:
			s.getRed(stf.TaskID(task), stf.Access{Data: stf.DataID(arg)})
			if s.err != nil {
				return
			}
		case stf.OpExec:
			task = arg
			if s.abort.raised() {
				s.prog.Publish() // the task before may be unpublished
				s.fail(errAborted)
				return
			}
			t := &tasks[arg]
			s.exec(t.ID, t.Accesses, body{t: t, k: k}, reds)
			if armed || i+1 == len(stream) || stream[i+1].Op() != stf.OpExec {
				// The next exec's start publishes this completion;
				// anything else publishes it now. An armed replay always
				// does: its next exec may be a stolen task's, skipped.
				s.prog.Publish()
			}
		case stf.OpTermRead:
			s.local[arg].terminateRead(&s.shared[arg])
		case stf.OpTermWrite:
			s.local[arg].terminateWrite(&s.shared[arg], int64(task))
		case stf.OpTermRed:
			s.local[arg].terminateRed(&s.shared[arg])
		default:
			err := fmt.Errorf("core: corrupt compiled stream: op %d at %d", op, i)
			s.fail(err)
			s.abort.raise(err, false)
			return
		}
	}
	// Declared counts are known at compile time; charge them only on a
	// completed stream (an aborted run reports what actually happened:
	// Executed is counted live, Declared is unavailable). The counts
	// accumulate so a streaming session's windows add up; one-shot runs
	// start from zero.
	s.prog.CountDeclared(cp.Stats[s.worker].Declared)
}

// declaredMode is the access mode task id declared on datum d, read from
// the task table of the flow being replayed: compiled streams carry no
// modes, and a wait needs one only for the hooks or a stopped run's
// diagnosis.
func (s *submitter) declaredMode(id stf.TaskID, d stf.DataID) stf.AccessMode {
	if s.flow == nil || id < 0 || int(id) >= len(s.flow.tasks) {
		return stf.None
	}
	for _, a := range s.flow.tasks[id].Accesses {
		if a.Data == d {
			return a.Mode
		}
	}
	return stf.None
}
