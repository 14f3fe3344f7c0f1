// Package rio is a task-based runtime system for shared-memory machines
// implementing the Sequential Task Flow (STF) programming model under three
// interchangeable execution models, following Castes, Agullo, Aumage and
// Saillard, "Decentralized in-order execution of a sequential task-based
// code for shared-memory architectures" (Inria RR-9450, 2022):
//
//   - InOrder — the paper's contribution: a decentralized, in-order engine
//     in which every worker replays the whole task flow and a static
//     mapping assigns each task to its executing worker. Per-task overhead
//     is a handful of private-memory writes, making very fine-grained
//     tasks profitable.
//   - Centralized — the conventional baseline: a master thread unrolls the
//     task flow, derives dependencies and dispatches ready tasks through
//     one FIFO queue to the other workers (out-of-order execution).
//   - Sequential — tasks run inline in submission order; the semantic
//     reference of the STF model.
//
// A program is written once against the Submitter interface and can be run
// unchanged under any engine:
//
//	eng, _ := rio.New(rio.Options{Workers: 4, Mapping: rio.CyclicMapping(4)})
//	err := eng.Run(numData, func(s rio.Submitter) {
//	    s.Submit(func() { ... }, rio.Read(x), rio.Write(y))
//	})
//
// The decentralized engine replays the program once per worker, so programs
// must be deterministic: every replay must submit the same tasks with the
// same accesses in the same order.
package rio

import (
	"context"
	"fmt"
	"time"

	"rio/internal/analyze"
	"rio/internal/centralized"
	"rio/internal/core"
	"rio/internal/sequential"
	"rio/internal/stf"
	"rio/internal/trace"
)

// Re-exported programming-model types; see package internal/stf.
type (
	// TaskID is a task's position in the task flow.
	TaskID = stf.TaskID
	// WorkerID identifies a worker.
	WorkerID = stf.WorkerID
	// DataID identifies a runtime-managed data object.
	DataID = stf.DataID
	// AccessMode declares how a task accesses a data object.
	AccessMode = stf.AccessMode
	// Access pairs a data object with an access mode.
	Access = stf.Access
	// Task is a recorded task (allocation-free submission path).
	Task = stf.Task
	// Kernel executes recorded tasks.
	Kernel = stf.Kernel
	// TaskFunc is a closure task body.
	TaskFunc = stf.TaskFunc
	// Submitter receives the task flow of a Program.
	Submitter = stf.Submitter
	// Program is a sequential task-based code.
	Program = stf.Program
	// Mapping statically assigns tasks to workers (required by the
	// in-order engine).
	Mapping = stf.Mapping
	// Graph is a recorded task flow.
	Graph = stf.Graph
	// Stats is the per-run time decomposition (task / idle / runtime).
	Stats = trace.Stats
	// Efficiency is the e_g·e_l·e_p·e_r decomposition of §2.3.
	Efficiency = trace.Efficiency
	// Hooks installs lifecycle callbacks on an engine (Options.Hooks):
	// run start/end, task start/end, dependency-wait start/end. A nil
	// Hooks pointer — the default — costs the hot path one pointer test
	// per site; see the field docs for the exact firing contract.
	Hooks = stf.Hooks
	// Progress is a mid-run snapshot of a run's record (Runtime.Progress):
	// each worker's counters, the task it is executing and its wait-time
	// histogram (empty under Options.NoAccounting). Safe to take from any
	// goroutine while a run is in flight.
	Progress = trace.Progress
	// WorkerProgress is one worker's record: an entry of Progress.Workers,
	// live, and of Stats.Workers, final.
	WorkerProgress = trace.Worker
	// StealPolicy enables bounded, dependency-safe work stealing in the
	// in-order engine (Options.Steal): an idle worker executes a victim's
	// next in-order task when the per-data counter state proves all of its
	// accesses available. The zero value of every field selects defaults;
	// a nil *StealPolicy (the default) keeps the paper's pure static model
	// at the cost of one pointer test per task.
	StealPolicy = stf.StealPolicy

	// StallError is the stall watchdog's structured diagnosis: no task
	// completed for Options.StallTimeout and the error names which
	// workers are stuck on which tasks and data accesses (use errors.As).
	StallError = stf.StallError
	// StalledWorker is one blocked worker inside a StallError.
	StalledWorker = stf.StalledWorker
	// BusyWorker is one task-executing worker inside a StallError.
	BusyWorker = stf.BusyWorker
	// StallKind distinguishes a global deadlock from a stuck task.
	StallKind = stf.StallKind
	// DivergenceError reports that the in-order engine's workers did not
	// replay the same task flow (the program is nondeterministic).
	DivergenceError = stf.DivergenceError

	// PreflightPasses selects the static-analysis passes Options.Preflight
	// runs before every Run (see internal/analyze).
	PreflightPasses = analyze.Passes
	// PreflightError is returned by Run when preflight analysis rejects
	// the program before any worker starts; its Report field carries every
	// finding (use errors.As).
	PreflightError = analyze.PreflightError
	// AnalysisReport is the full outcome of a preflight analysis.
	AnalysisReport = analyze.Report
	// Finding is one diagnostic of a preflight analysis.
	Finding = analyze.Finding
)

// Preflight pass selectors; combine with | or use PreflightAll.
const (
	// PreflightAccess lints access declarations: malformed or duplicate
	// accesses, reads of never-written data, dead writes, unused data.
	PreflightAccess = analyze.PassAccess
	// PreflightMapping validates the static mapping: out-of-range
	// workers, load imbalance, and (in-order engine) mapping-induced
	// serialization of the dependency graph.
	PreflightMapping = analyze.PassMapping
	// PreflightDeterminism replays the program several times in record
	// mode and rejects structurally diverging replays — the static
	// complement of the runtime divergence guard.
	PreflightDeterminism = analyze.PassDeterminism
	// PreflightSpec model-checks small instances against the formal
	// specification (internal/spec); larger instances are skipped.
	PreflightSpec = analyze.PassSpec
	// PreflightAll runs every pass.
	PreflightAll = analyze.PassAll
)

// Stall kinds reported by the watchdog.
const (
	// Deadlock: every live worker blocked in a dependency wait, nothing
	// completing — the signature of a divergent replay.
	Deadlock = stf.Deadlock
	// StuckTask: a task body overran the watchdog threshold while nothing
	// else completed.
	StuckTask = stf.StuckTask
)

// Access-mode constants.
const (
	// ReadOnly accesses wait for all previous writes.
	ReadOnly = stf.ReadOnly
	// WriteOnly accesses wait for all previous reads and writes.
	WriteOnly = stf.WriteOnly
	// ReadWrite accesses combine both.
	ReadWrite = stf.ReadWrite
	// Reduction accesses commute with each other (a run of consecutive
	// reductions is ordered like one write against its surroundings, but
	// its members may execute in any order, serialized by the engine) —
	// the §3.4 extension beyond strict sequential consistency.
	Reduction = stf.Reduction
)

// Read declares a read-only access to d.
func Read(d DataID) Access { return stf.R(d) }

// Write declares a write-only access to d.
func Write(d DataID) Access { return stf.W(d) }

// RW declares a read-write access to d.
func RW(d DataID) Access { return stf.RW(d) }

// Reduce declares a commutative reduction access to d.
func Reduce(d DataID) Access { return stf.Red(d) }

// Model selects an execution model.
type Model int

const (
	// InOrder is the decentralized in-order model (the paper's RIO).
	InOrder Model = iota
	// Centralized is the master/worker out-of-order baseline: one master
	// thread derives dependencies and feeds a FIFO ready queue.
	Centralized
	// Sequential runs tasks inline on the caller.
	Sequential
)

// String names the model as used in reports.
func (m Model) String() string {
	switch m {
	case InOrder:
		return "rio"
	case Centralized:
		return "centralized-fifo"
	case Sequential:
		return "sequential"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Options configures an engine.
type Options struct {
	// Model selects the execution model (InOrder by default).
	Model Model
	// Workers is the number of threads. InOrder: all execute tasks.
	// Centralized: one is the master, Workers-1 execute. Ignored by
	// Sequential.
	Workers int
	// Mapping assigns tasks to workers. Required semantics differ by
	// model: InOrder treats it as the binding static mapping (defaults to
	// cyclic); Centralized and Sequential ignore it (the centralized
	// master dispatches every ready task to whichever executor is free).
	Mapping Mapping
	// Window bounds in-flight tasks in the centralized engine (0 =
	// unbounded).
	Window int
	// Steal enables bounded, dependency-safe work stealing in the
	// in-order engine: an idle worker (parked or past its spin budget, or
	// done with its own replay) executes another worker's next in-order
	// task when the shared per-data counters prove every access available,
	// claiming it with one atomic CAS. Execution remains sequentially
	// consistent — readiness is derived from the same registered counter
	// values every worker's replay computes — while skewed mappings stop
	// serializing on the hot worker (see the RIO-M010 preflight finding
	// and sched-ranked Victims via RankVictims). Steal readiness is read
	// from a compiled program's per-task tables, so on an armed engine a
	// closure Run records the program once and replays the compiled
	// recording (task bodies that capture the Submitter then observe the
	// recording one, as under Centralized); programs under a partial
	// (SharedWorker) mapping keep plain closure replay, where those tasks
	// already float. nil (the default) disables stealing and costs the hot
	// path one flag test per compiled micro-op. Other models ignore it.
	Steal *StealPolicy
	// NoAccounting disables fine-grained time-stamping: no clock is read
	// inside a run, so Stats carries only the wall time and the task
	// counts (Stats.Accounted is false) and Progress's wait histogram
	// stays empty; every other Progress counter is published either way.
	// Accounting costs two monotonic clock reads per executed task and two
	// per dependency wait, which is most of what there is to save on tasks
	// that do next to nothing (BenchmarkAccountingOverhead) and invisible
	// on tasks of a microsecond or more.
	NoAccounting bool
	// Timeout, when positive, bounds every Run/RunContext call: the run
	// is canceled when the deadline expires, as if the caller had passed
	// a context with that timeout. A convenience over RunContext.
	Timeout time.Duration
	// StallTimeout arms the in-order engine's stall watchdog: when no
	// task completes for this long and the workers are provably
	// deadlocked (all blocked in dependency waits — the signature of a
	// nondeterministic replay) or stuck inside one task body, the run
	// aborts with a StallError naming the stuck tasks and data accesses.
	// 0 (the default) disables the watchdog; load imbalance never trips
	// it. Other engines ignore it.
	StallTimeout time.Duration
	// NoGuard disables the in-order engine's replay-divergence guard
	// (a few private arithmetic ops per task that detect nondeterministic
	// programs; see DESIGN.md "Failure semantics"). Other engines have no
	// replay to guard and ignore it.
	NoGuard bool
	// Prune applies §3.5 task pruning when a caching Engine (NewEngine)
	// compiles a graph: each worker's instruction stream omits the tasks
	// irrelevant to it (tasks it neither executes nor shares data with),
	// shrinking the replay work below n micro-op groups per worker. Other
	// runtimes ignore it; explicit Compile calls take pruning as an
	// argument instead.
	Prune bool
	// Hooks optionally installs lifecycle callbacks fired by every engine:
	// run start/end, task start/end and dependency-wait start/end. The
	// callbacks run on the worker goroutines and must be concurrency-safe;
	// nil (the default) costs the hot path one pointer test per site.
	Hooks *Hooks
	// Preflight, when non-zero, runs the selected static-analysis passes
	// (internal/analyze) over the program in record mode before every
	// Run: the program is recorded once — no task body executes — and
	// findings of Warning or Error severity reject the run with a
	// *PreflightError before any worker starts. Defects the engines
	// would otherwise surface mid-run (nondeterministic replays, broken
	// or serializing mappings, malformed accesses) are caught at
	// submission time instead. See PreflightAccess … PreflightAll.
	Preflight PreflightPasses
	// Verify runs translation validation (internal/verify) on every
	// compiled-program cache miss of a caching Engine: the freshly
	// compiled streams are statically certified against the recorded graph
	// (coverage, order, ownership, pruning soundness, happens-before)
	// before they enter the cache. A failed certificate rejects the run
	// with a *PreflightError carrying RIO-V00x findings. The cost is paid
	// once per (engine, graph) pair; cache hits are untouched. Other
	// runtimes and explicitly pre-compiled programs (Compile /
	// RunCompiled) ignore it — certify those with rio.Verify directly.
	Verify bool
}

// Runtime executes STF programs under one execution model.
type Runtime interface {
	// Run executes prog over numData data objects and blocks until the
	// whole task flow has executed. It returns an error — rather than
	// hanging or corrupting data — when a task panics, a protocol
	// violation is detected (out-of-range mapping, non-monotonic IDs),
	// the replay diverges across workers (in-order engine), or the stall
	// watchdog gives up on the run (see Options.StallTimeout).
	Run(numData int, prog Program) error
	// RunContext is Run with cancellation: when ctx is canceled or its
	// deadline expires, workers blocked inside the runtime unwind
	// promptly, no further tasks start, and the call returns an error
	// wrapping ctx's cause. Cancellation is cooperative — task bodies
	// already running finish first.
	RunContext(ctx context.Context, numData int, prog Program) error
	// Stats returns the time decomposition of the last Run.
	Stats() *Stats
	// Progress snapshots the current (or most recent) run's always-on
	// counters. Safe to call from any goroutine at any time, including
	// while a run is in flight; before the first run it returns a zero
	// Progress.
	Progress() Progress
	// Name identifies the engine ("rio", "centralized-fifo", ...).
	Name() string
	// NumWorkers returns the number of threads the engine uses.
	NumWorkers() int
}

// GraphRunner is implemented by runtimes that execute recorded graphs
// directly through the compiled fast path (per-worker instruction streams,
// cached per graph). The in-order Engine implements it; New returns a
// GraphRunner whenever Options.Model is InOrder.
type GraphRunner interface {
	// RunGraph executes g with kernel k, compiling (and caching) the
	// graph's per-worker instruction streams on first use.
	RunGraph(g *Graph, k Kernel) error
	// RunGraphContext is RunGraph with cancellation.
	RunGraphContext(ctx context.Context, g *Graph, k Kernel) error
}

// New builds a Runtime for the given options. With Model InOrder (the
// default) the returned Runtime is a caching *Engine: it additionally
// implements GraphRunner and Streamer, so recorded graphs can take the
// compiled fast path and unbounded flows the streaming path without a
// separate NewEngine call —
//
//	rt, _ := rio.New(rio.Options{Workers: 4})
//	if gr, ok := rt.(rio.GraphRunner); ok {
//	    err = gr.RunGraph(g, kernel)
//	}
//
// Every model's Runtime implements Streamer (the non-in-order models
// through a per-window fallback, see wrap.go).
func New(o Options) (Runtime, error) {
	if o.Model == InOrder {
		// The caching engine applies Timeout and Preflight itself, across
		// the closure, compiled and streaming paths.
		return NewEngine(o)
	}
	rt, err := newEngine(o)
	if err != nil {
		return nil, err
	}
	return &fallbackRuntime{Runtime: rt, opts: o}, nil
}

// coreOptions is the single translation of the public Options into the
// in-order engine's, so every option (Hooks included) is wired exactly once.
func coreOptions(o Options) core.Options {
	return core.Options{
		Workers:      o.Workers,
		Mapping:      o.Mapping,
		Steal:        o.Steal,
		NoAccounting: o.NoAccounting,
		StallTimeout: o.StallTimeout,
		NoGuard:      o.NoGuard,
		Hooks:        o.Hooks,
	}
}

// newEngine builds the non-in-order engines (New hands InOrder to NewEngine).
func newEngine(o Options) (Runtime, error) {
	switch o.Model {
	case Centralized:
		return centralized.New(centralized.Options{
			Workers:      o.Workers,
			Window:       o.Window,
			NoAccounting: o.NoAccounting,
			Hooks:        o.Hooks,
		})
	case Sequential:
		return sequential.New(sequential.Options{NoAccounting: o.NoAccounting, Hooks: o.Hooks}), nil
	}
	return nil, fmt.Errorf("rio: unknown model %v", o.Model)
}

// deadlineContext applies an Options.Timeout to ctx: with a positive
// timeout it derives a deadline context (composing with any deadline ctx
// already carries — the earlier one wins), otherwise it returns ctx
// unchanged with a no-op cancel. The single implementation behind both
// the fallback runtime and the caching Engine.
func deadlineContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// preflightConfig assembles the static-analysis configuration for the
// given options, mirroring the in-order engine's default mapping so the
// mapping pass analyzes what will actually run.
func preflightConfig(o Options, workers int) analyze.Config {
	cfg := analyze.Config{
		Passes:  o.Preflight,
		Workers: workers,
		Mapping: o.Mapping,
		InOrder: o.Model == InOrder,
	}
	if cfg.Mapping == nil && o.Model == InOrder {
		cfg.Mapping = CyclicMapping(workers)
	}
	return cfg
}

// preflightProgram records prog (no task body executes) and runs the
// selected passes; a Warning-or-worse finding rejects the run with a
// *PreflightError.
func preflightProgram(numData int, prog Program, o Options, workers int) error {
	report, _ := analyze.Program(numData, prog, preflightConfig(o, workers))
	if report.Reject() {
		return &PreflightError{Report: report}
	}
	return nil
}

// preflightGraph runs the selected passes over an already-recorded graph.
func preflightGraph(g *Graph, o Options, workers int) error {
	report := analyze.Graph(g, preflightConfig(o, workers))
	if report.Reject() {
		return &PreflightError{Report: report}
	}
	return nil
}

// CyclicMapping maps task id to worker id mod p — the default mapping of
// the in-order engine.
func CyclicMapping(p int) Mapping {
	return func(id TaskID) WorkerID { return WorkerID(id % TaskID(p)) }
}

// SharedWorker marks a task as having no static owner in a partial
// mapping: the in-order engine assigns it dynamically to the first worker
// whose replay reaches it (one compare-and-swap), trading a little shared
// state for load balancing — the hybrid the paper's conclusion sketches.
const SharedWorker = stf.SharedWorker

// Replay returns a Program submitting every task of g with kernel k.
func Replay(g *Graph, k Kernel) Program { return stf.Replay(g, k) }

// RecordProgram captures a program's task-flow structure (no task bodies
// run) for analysis: dependency derivation, pruning, automatic mapping,
// DOT/JSON export.
func RecordProgram(numData int, prog Program) (*Graph, error) {
	return stf.Record(numData, prog)
}

// Decompose computes the efficiency decomposition of a run given the best
// sequential time and the sequential time at the measured granularity.
var Decompose = trace.Decompose
