package stf

import (
	"fmt"
	"sync"
)

// Compiled replay: a recorded Graph, a static mapping and a worker count
// are statically known before a run, yet closure replay re-derives all
// three on every run of every worker — each worker calls the mapping once
// per task, re-walks the access list through the Submitter interface and
// folds the divergence guard, paying the full n·t_r replay term of the
// paper's cost model (eq. 2) again and again. Compilation hoists that work
// out of the run loop: the flow is lowered ONCE into flat per-worker
// streams of pre-resolved micro-ops, four bytes each (microop.go), and the
// engine's compiled execution loop just interprets them — no closure
// dispatch, no interface values, no per-run mapping calls, no guard
// folding (all workers' streams derive from the same graph, so replay
// divergence is impossible by construction). Task pruning (§3.5) is
// applied at compile time by simply omitting irrelevant tasks from a
// worker's stream.
//
// The synchronization protocol is untouched: the micro-ops invoke exactly
// the declare/get/terminate operations of Algorithms 1 and 2, in the same
// order closure replay would — for every data object some pair of workers
// must be ordered on. A datum no two workers conflict on (see uncontended)
// gets no micro-ops at all: the protocol exists to order conflicting
// accesses across workers, and there it has nothing to order.

// StreamStats counts, for one worker's stream, the tasks it executes and
// the tasks it declares — known at compile time, so the engine charges
// them to the run's statistics without per-op counters.
type StreamStats struct {
	// Executed is the number of OpExec micro-ops in the stream.
	Executed int64
	// Declared is the number of distinct foreign tasks the stream declares
	// accesses for (tasks pruned from the stream count for neither).
	Declared int64
}

// CompiledProgram is a recorded Graph lowered for one (mapping, workers)
// pair: one flat instruction stream per worker. It is immutable after
// Compile, bar the steal metadata it memoises once, and safe to run
// concurrently on different engines (each run owns its synchronization
// state; the program is read-only).
//
// Tasks aliases the source graph's task slice — the graph must not be
// mutated while compiled programs over it are in use.
type CompiledProgram struct {
	// Name labels the workload (copied from the graph).
	Name string
	// NumData is the number of data objects the streams reference.
	NumData int
	// Workers is the worker count the program was compiled for; a run
	// must use exactly this many workers.
	Workers int
	// Tasks is the task table OpExec and OpTask index into.
	Tasks []Task
	// Streams holds one micro-op stream per worker, in the word format of
	// microop.go: read it with Decode, write it with Encode.
	Streams [][]Word
	// Stats gives each stream's compile-time execute/declare counts.
	Stats []StreamStats
	// Pruned records whether §3.5 pruning was applied.
	Pruned bool
	// Elided marks, per data object, the uncontended data whose accesses
	// were lowered to no micro-ops in any stream (nil when there is none).
	// Such streams are sound only for the executors the mapping assigned:
	// stealing needs Canonical.
	Elided []bool

	// noDataOps and noReductions are what the lowering learns as it visits
	// the accesses: no stream holds a data micro-op, no task has a
	// commutative access (HasDataOps, HasReductions). Their zero value claims
	// neither, so a program built any other way runs as one that has both.
	noDataOps, noReductions bool

	// stealMeta memoises StealMeta; programs travel by pointer only, so the
	// Once is never copied.
	stealOnce sync.Once
	stealMeta *StealMeta
}

// Ops returns the total micro-op count across all streams — the compiled
// measure of per-run replay work (the n·t_r term, now paid at compile
// time). OpTask words are not micro-ops and are not counted.
func (cp *CompiledProgram) Ops() int {
	n := 0
	for _, s := range cp.Streams {
		n += StreamOps(s)
	}
	return n
}

// HasDataOps reports whether some stream of cp holds a data micro-op (a
// declare, get or terminate): false only when the lowering found every
// stream bare exec words, so a run of cp reads no per-data cell.
func HasDataOps(cp *CompiledProgram) bool { return !cp.noDataOps }

// HasReductions reports whether some task of cp has a commutative access:
// false only when the lowering found none, so no body of cp takes a
// reduction lock.
func HasReductions(cp *CompiledProgram) bool { return !cp.noReductions }

// Compile lowers g into per-worker instruction streams for the given
// mapping and worker count. relevant, when non-nil, is the §3.5 pruning
// analysis (one bitmap per worker over g's tasks, as computed by
// sched.Relevant): tasks irrelevant to a worker are omitted from its
// stream entirely. A nil relevant compiles the full flow for every
// worker. Accesses to uncontended data emit no micro-ops; the program's
// Elided set records which data those are.
//
// The mapping is evaluated exactly once per task, at compile time. It
// must be total over g and must not return SharedWorker: partial mappings
// resolve ownership at run time by first-to-reach claims, which a
// pre-resolved stream cannot express — use closure replay for those. A
// one-worker program may take a nil mapping: every task runs on worker 0,
// and no mapping is called.
func Compile(g *Graph, m Mapping, workers int, relevant [][]bool) (*CompiledProgram, error) {
	return compile(g, m, workers, relevant, true)
}

// CompileCanonical is Compile without elision: every access of every
// relevant task gets its micro-ops, so any worker can prove any task's
// readiness against the shared cells. It is the lowering of an engine with
// work stealing armed, where the executor of a task is not the mapping's to
// decide.
func CompileCanonical(g *Graph, m Mapping, workers int, relevant [][]bool) (*CompiledProgram, error) {
	return compile(g, m, workers, relevant, false)
}

// CompileOwned is Compile for a flow its caller has validated already
// (Validate) under a mapping it has resolved already: owners[i] executes
// task i. Nil owners make the one-worker program, every task on worker 0,
// whose lowering needs no analysis at all — every task is relevant to its
// one worker and every datum it accesses has one owner, so the stream is
// the exec words alone.
func CompileOwned(g *Graph, owners []WorkerID, workers int, relevant [][]bool) (*CompiledProgram, error) {
	switch {
	case workers < 1:
		return nil, fmt.Errorf("stf: compile: workers must be >= 1, got %d", workers)
	case owners == nil && workers != 1:
		return nil, fmt.Errorf("stf: compile: no owner table for %d workers", workers)
	case owners != nil && len(owners) != len(g.Tasks):
		return nil, fmt.Errorf("stf: compile: owner table covers %d tasks, graph has %d", len(owners), len(g.Tasks))
	}
	return lowerOwned(g, owners, workers, relevant, true)
}

func compile(g *Graph, m Mapping, workers int, relevant [][]bool, elide bool) (*CompiledProgram, error) {
	if workers < 1 {
		return nil, fmt.Errorf("stf: compile: workers must be >= 1, got %d", workers)
	}
	if m == nil && workers != 1 {
		return nil, fmt.Errorf("stf: compile: nil mapping")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("stf: compile: %w", err)
	}
	var owners []WorkerID
	if m != nil {
		// Resolve ownership once per task (not once per task per worker).
		owners = make([]WorkerID, len(g.Tasks))
		for i := range g.Tasks {
			owners[i] = m(g.Tasks[i].ID)
		}
	}
	return lowerOwned(g, owners, workers, relevant, elide)
}

// lowerOwned is the lowering of a validated flow under an owner table (nil:
// every task on worker 0 of a one-worker program).
func lowerOwned(g *Graph, owners []WorkerID, workers int, relevant [][]bool, elide bool) (*CompiledProgram, error) {
	if relevant != nil {
		if len(relevant) != workers {
			return nil, fmt.Errorf("stf: compile: pruning bitmaps for %d workers, compiling for %d", len(relevant), workers)
		}
		for w, r := range relevant {
			if len(r) != len(g.Tasks) {
				return nil, fmt.Errorf("stf: compile: worker %d pruning bitmap covers %d tasks, graph has %d", w, len(r), len(g.Tasks))
			}
		}
	}
	if err := checkIndexable(g.NumData, len(g.Tasks)); err != nil {
		return nil, err
	}
	for i, o := range owners {
		if o == SharedWorker {
			return nil, fmt.Errorf("stf: compile: task %d has no static owner (SharedWorker); partial mappings require closure replay", i)
		}
		if o < 0 || int(o) >= workers {
			return nil, fmt.Errorf("stf: compile: mapping(%d) = %d out of range [0,%d)", i, o, workers)
		}
	}
	if owners == nil && !elide { // nil owners lower to exec words alone, which needs every access elided
		owners = make([]WorkerID, len(g.Tasks))
	}

	cp := &CompiledProgram{
		Name:    g.Name,
		NumData: g.NumData,
		Workers: workers,
		Tasks:   g.Tasks,
		Pruned:  relevant != nil,
	}
	if elide && owners != nil {
		cp.Elided = uncontended(g.Tasks, owners, g.NumData)
	}
	cp.lower(owners, relevant)
	return cp, nil
}

// uncontended classifies the data of a flow under one ownership: a datum
// is uncontended iff no two accesses to it whose order Algorithms 1 and 2
// enforce — one of them a write, or a reduction against a read — belong to
// tasks of different owners. That is: all of its accesses share one owner,
// or they are all reads, or all reductions. Conflicting accesses to such a
// datum are ordered by their common worker's program order, and no stream
// holds a wait on its cell, so nothing published there is ever read. Tasks
// without an owner (owners[i] < 0) are not part of the flow. The result
// marks the uncontended data that are accessed at all; nil means none.
// (Nil owners, every task on one worker, make every datum accessed
// uncontended: lower marks those as it writes the exec words.)
func uncontended(tasks []Task, owners []WorkerID, numData int) []bool {
	const unseen, several = WorkerID(-1), WorkerID(-2)
	type use struct {
		owner                WorkerID
		reads, reds, written bool
	}
	uses := make([]use, numData)
	for d := range uses {
		uses[d].owner = unseen
	}
	for i := range tasks {
		if owners[i] < 0 {
			continue
		}
		for _, a := range tasks[i].Accesses {
			u := &uses[a.Data]
			switch {
			case u.owner == unseen:
				u.owner = owners[i]
			case u.owner != owners[i]:
				u.owner = several
			}
			switch {
			case a.Mode.Writes():
				u.written = true
			case a.Mode.Commutes():
				u.reds = true
			default:
				u.reads = true
			}
		}
	}
	var out []bool
	for d, u := range uses {
		if u.owner == unseen || (u.owner == several && (u.written || (u.reads && u.reds))) {
			continue
		}
		if out == nil {
			out = make([]bool, numData)
		}
		out[d] = true
	}
	return out
}

// lower emits cp's streams and their execute/declare counts from cp.Tasks:
// owners[i] executes task i, a negative owner drops the task from every
// stream, relevant (when non-nil) drops foreign tasks per worker, and
// accesses to cp.Elided data emit nothing. The counts are of tasks, so
// they do not depend on how many micro-ops a task kept. Nil owners put
// every task on the one worker, where every datum accessed is uncontended:
// one pass marks those in cp.Elided and writes one exec word a task. Either
// way the pass that visits the accesses records the program's facts
// (HasDataOps, HasReductions).
func (cp *CompiledProgram) lower(owners []WorkerID, relevant [][]bool) {
	reductions := false
	if owners == nil {
		words := make([]Word, len(cp.Tasks))
		for i := range cp.Tasks {
			words[i] = word(OpExec, int32(cp.Tasks[i].ID))
			for _, a := range cp.Tasks[i].Accesses {
				if cp.Elided == nil {
					cp.Elided = make([]bool, cp.NumData)
				}
				cp.Elided[a.Data] = true
				reductions = reductions || a.Mode.Commutes()
			}
		}
		cp.Streams = [][]Word{words}
		cp.Stats = []StreamStats{{Executed: int64(len(cp.Tasks))}}
		cp.noDataOps, cp.noReductions = true, !reductions
		return
	}
	// Size every stream exactly, so each is allocated once: an owned task
	// takes a group word (when it has live accesses), its gets, the exec and
	// its terminates; a foreign one a group word and its declares, or
	// nothing.
	sizes := make([]int, cp.Workers)
	for i := range cp.Tasks {
		if owners[i] < 0 {
			continue
		}
		live := 0 // accesses that emit micro-ops
		for _, a := range cp.Tasks[i].Accesses {
			if cp.Elided == nil || !cp.Elided[a.Data] {
				live++
			}
			reductions = reductions || a.Mode.Commutes()
		}
		group := 0
		if live > 0 {
			group = 1
		}
		for w := range sizes {
			switch {
			case relevant != nil && !relevant[w][i]:
			case owners[i] == WorkerID(w):
				sizes[w] += group + 2*live + 1
			default:
				sizes[w] += group + live
			}
		}
	}
	cp.Streams = make([][]Word, cp.Workers)
	cp.Stats = make([]StreamStats, cp.Workers)
	for w := range cp.Streams {
		a := appender{words: make([]Word, 0, sizes[w])}
		for i := range cp.Tasks {
			if owners[i] < 0 || (relevant != nil && !relevant[w][i]) {
				continue
			}
			t := &cp.Tasks[i]
			if owners[i] == WorkerID(w) {
				a.appendOwned(t, cp.Elided)
				cp.Stats[w].Executed++
			} else {
				// A foreign task with no live access needs no bookkeeping at
				// all — it synchronizes on nothing. Closure replay still
				// pays a submission for it; the compiled stream is free.
				a.appendForeign(t, cp.Elided)
				cp.Stats[w].Declared++
			}
		}
		cp.Streams[w] = a.words
	}
	cp.noDataOps, cp.noReductions = cp.bare(), !reductions
}

// bare reports whether cp's streams are exec words alone: a stream's words
// outnumber its executed tasks exactly when it holds a data micro-op (a
// group word opens only before one).
func (cp *CompiledProgram) bare() bool {
	for w, s := range cp.Streams {
		if int64(len(s)) != cp.Stats[w].Executed {
			return false
		}
	}
	return true
}

// execOwners recovers each task's executor from the streams (an owned task
// always keeps its OpExec); -1 marks tasks no stream executes, which only a
// hand-built or mutated program has.
func (cp *CompiledProgram) execOwners() []WorkerID {
	owners := make([]WorkerID, len(cp.Tasks))
	for i := range owners {
		owners[i] = -1
	}
	for w, stream := range cp.Streams {
		for in := range Decode(stream) {
			if in.Op == OpExec {
				owners[in.Task] = WorkerID(w)
			}
		}
	}
	return owners
}

// Canonical returns cp's flow with every access lowered: cp itself when
// nothing was elided, otherwise a re-lowering of cp.Tasks under the
// executors the streams record. §3.5
// pruning is not carried over (which foreign tasks an elided stream found
// relevant is no longer recoverable; the full flow is always sound).
func (cp *CompiledProgram) Canonical() *CompiledProgram {
	if cp.Elided == nil {
		return cp
	}
	out := &CompiledProgram{
		Name:    cp.Name,
		NumData: cp.NumData,
		Workers: cp.Workers,
		Tasks:   cp.Tasks,
	}
	out.lower(cp.execOwners(), nil)
	return out
}

// appendOwned emits the micro-ops of a task the worker executes: the
// get_* waits in declared access order, the body, then the terminate_*
// publications — exactly the sequence of Algorithm 1's execute path, minus
// the accesses to elided data. The words are the ones append would write
// for that sequence, without its per-op test: lower emits each task once
// per stream, so the task's group is never open when it starts.
func (ap *appender) appendOwned(t *Task, elided []bool) {
	id := int32(t.ID)
	open := false
	for _, a := range t.Accesses {
		if elided == nil || !elided[a.Data] {
			if !open {
				ap.words, open = append(ap.words, word(OpTask, id)), true
			}
			ap.words = append(ap.words, word(getOp(a.Mode), int32(a.Data)))
		}
	}
	ap.words = append(ap.words, word(OpExec, id))
	for _, a := range t.Accesses {
		if elided == nil || !elided[a.Data] {
			ap.words = append(ap.words, word(termOp(a.Mode), int32(a.Data)))
		}
	}
	ap.task, ap.open = id, true
}

// appendForeign emits the declare_* bookkeeping of a task owned by another
// worker, as appendOwned does its micro-ops.
func (ap *appender) appendForeign(t *Task, elided []bool) {
	id := int32(t.ID)
	for _, a := range t.Accesses {
		if elided == nil || !elided[a.Data] {
			if !ap.open || ap.task != id {
				ap.words = append(ap.words, word(OpTask, id))
				ap.task, ap.open = id, true
			}
			ap.words = append(ap.words, word(declareOp(a.Mode), int32(a.Data)))
		}
	}
}

func declareOp(m AccessMode) OpCode {
	switch {
	case m.Writes():
		return OpDeclareWrite
	case m.Commutes():
		return OpDeclareRed
	default:
		return OpDeclareRead
	}
}

func getOp(m AccessMode) OpCode {
	switch {
	case m.Writes():
		return OpGetWrite
	case m.Commutes():
		return OpGetRed
	default:
		return OpGetRead
	}
}

func termOp(m AccessMode) OpCode {
	switch {
	case m.Writes():
		return OpTermWrite
	case m.Commutes():
		return OpTermRed
	default:
		return OpTermRead
	}
}
