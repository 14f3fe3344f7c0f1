package rio

import (
	"context"
	"fmt"
	"sync"

	"rio/internal/core"
	"rio/internal/sched"
	"rio/internal/stf"
	"rio/internal/verify"
)

// CompiledProgram is a recorded task flow lowered into flat per-worker
// instruction streams for one (mapping, workers) pair — the fast replay
// path. Closure replay pays the paper's n·t_r replay term (eq. 2) on
// every run of every worker: the mapping is re-evaluated, the access
// lists re-walked and the divergence guard re-folded each time. A
// compiled program pays that cost once, at Compile time; running it
// interprets pre-resolved micro-ops with no closure dispatch, no
// interface values and no guard (all streams derive from one graph, so
// replay divergence is impossible by construction).
type CompiledProgram = stf.CompiledProgram

// Compile lowers a recorded graph for the given worker count and mapping
// (nil means the cyclic default). With prune set, §3.5 task pruning is
// applied at compile time: tasks irrelevant to a worker are omitted from
// its stream entirely. Data no two workers conflict on get no
// synchronization micro-ops at all (CompiledProgram.Elided lists them).
//
// The mapping must give every task a static owner in [0, workers);
// partial mappings (SharedWorker) resolve ownership at run time and
// require closure replay. The returned program is immutable, reusable
// across runs and engines of the same worker count, and assumes g is not
// mutated while it is in use.
func Compile(g *Graph, workers int, m Mapping, prune bool) (*CompiledProgram, error) {
	return compile(g, workers, m, prune, false)
}

// compile is Compile in front of either lowering: eliding (stf.Compile) or
// canonical (stf.CompileCanonical).
func compile(g *Graph, workers int, m Mapping, prune, canonical bool) (*CompiledProgram, error) {
	if m == nil {
		if workers < 1 {
			return nil, fmt.Errorf("rio: Compile: workers must be >= 1, got %d", workers)
		}
		if workers > 1 { // one worker: stf lowers a nil mapping as every task on worker 0
			m = CyclicMapping(workers)
		}
	}
	var rel [][]bool
	if prune {
		rel = sched.Relevant(g, m, workers)
	}
	if canonical {
		return stf.CompileCanonical(g, m, workers, rel)
	}
	return stf.Compile(g, m, workers, rel)
}

// Engine is an in-order (RIO) runtime with a compiled-program cache:
// RunGraph compiles a recorded graph on first sight and replays the
// cached streams on every later run, so iterative workloads (outer
// loops re-running an identical flow) pay the n·t_r unrolling cost once
// per engine instead of once per run. The cache is keyed by graph
// identity (the *Graph pointer); SetMapping flushes it, since the
// streams bake the task→worker assignment in.
//
// Engine also implements Runtime, executing closure programs through the
// ordinary replay path (or, with Options.Steal, a per-run recording of it)
// — use that for flows that change between runs or need partial
// (SharedWorker) mappings. Options.Timeout is honored for
// all runs. Options.Preflight is honored on both paths: closure programs
// are analyzed in record mode before every run, recorded graphs once per
// compilation (at the cache miss, so iterative replays pay it once).
// Programs pre-compiled explicitly via Compile bypass preflight — their
// graphs were validated structurally at compile time.
//
// Concurrency: an Engine has one caller. Run, RunGraph, RunCompiled,
// Stream and SetMapping must not overlap one another: an Engine executes
// one task flow at a time, and a cache miss compiles on the calling
// goroutine. Progress and CacheStats may be called from any goroutine at
// any time. Callers wanting concurrent compilation compile outside the
// engine with Compile (and Verify) and hand the programs to RunCompiled
// from the one goroutine that runs — internal/server is that pattern:
// submitters compile into a per-tenant flow table, one executor runs.
type Engine struct {
	core    *core.Engine
	opts    Options
	mapping Mapping // the one caller's, like opts: not guarded by mu

	mu           sync.Mutex // guards cache and the counters against CacheStats
	cache        map[*Graph]*CompiledProgram
	hits, misses int64
}

// NewEngine returns a caching in-order engine. Options.Model must be
// InOrder (the zero value): the compiled path is specific to
// decentralized replay.
func NewEngine(o Options) (*Engine, error) {
	if o.Model != InOrder {
		return nil, fmt.Errorf("rio: NewEngine: compiled replay requires the InOrder model, got %v", o.Model)
	}
	c, err := core.New(coreOptions(o))
	if err != nil {
		return nil, err
	}
	m := o.Mapping
	if m == nil {
		m = CyclicMapping(o.Workers)
	}
	return &Engine{core: c, opts: o, mapping: m, cache: make(map[*Graph]*CompiledProgram)}, nil
}

// RunGraph executes g with kernel k through the compiled fast path,
// compiling (and caching) the graph on first use.
func (e *Engine) RunGraph(g *Graph, k Kernel) error {
	return e.RunGraphContext(context.Background(), g, k)
}

// RunGraphContext is RunGraph with cancellation.
func (e *Engine) RunGraphContext(ctx context.Context, g *Graph, k Kernel) error {
	cp, err := e.precompile(g)
	if err != nil {
		return err
	}
	return e.RunCompiledContext(ctx, cp, k)
}

// precompile returns the cached program for g, compiling on a miss. The
// miss path is also where Options.Preflight analyzes the graph and
// Options.Verify certifies the streams: once per (engine, graph) pair, not
// once per run.
func (e *Engine) precompile(g *Graph) (*CompiledProgram, error) {
	e.mu.Lock()
	cp, ok := e.cache[g]
	if ok {
		e.hits++
	}
	e.mu.Unlock()
	if ok {
		return cp, nil
	}
	cp, err := e.compileOne(g)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.misses++
	e.cache[g] = cp
	e.mu.Unlock()
	return cp, nil
}

// compileOne is the miss path: preflight, compile and certify g under the
// engine's mapping.
func (e *Engine) compileOne(g *Graph) (*CompiledProgram, error) {
	if e.opts.Preflight != 0 {
		if err := preflightGraph(g, e.opts, e.core.NumWorkers()); err != nil {
			return nil, err
		}
	}
	return e.lower(g, e.mapping)
}

// lower is the compile-miss pipeline shared by the graph cache (compileOne)
// and a stream's shape cache (compileShape): Compile under the given
// mapping snapshot — §3.5-pruned when Options.Prune is set — and with
// Options.Verify the translation-validation certificate. With Options.Steal
// the lowering is canonical: a thief may execute any task, so every access
// must stay provable against the shared cells.
func (e *Engine) lower(g *Graph, mapping Mapping) (*CompiledProgram, error) {
	cp, err := compile(g, e.core.NumWorkers(), mapping, e.opts.Prune, e.opts.Steal != nil)
	if err != nil {
		return nil, err
	}
	if e.opts.Verify {
		if err := certify(g, cp, mapping); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

// certify runs translation validation and converts a failed certificate
// into the preflight rejection error.
func certify(g *Graph, cp *CompiledProgram, m Mapping) error {
	report := verify.Certify(g, cp, verify.Config{Mapping: m})
	if report.Reject() {
		return &PreflightError{Report: report}
	}
	return nil
}

// Verify statically certifies that cp is a faithful lowering of g under
// mapping m (nil means the cyclic default for cp's worker count):
// coverage and program order, ownership, §3.5 pruning soundness, and the
// vector-clock happens-before certificate over every conflicting access
// pair. The returned report is empty when the program is certified;
// findings carry the RIO-V00x codes. Options.Verify runs the same
// certification automatically on every Engine cache miss.
//
// The last parameter must be nil. It once carried a resume checkpoint; it
// stays only so that callers passing nil keep compiling, and is dropped
// together with those callers.
func Verify(g *Graph, cp *CompiledProgram, m Mapping, _ *noCheckpoint) *AnalysisReport {
	if m == nil && cp != nil && cp.Workers > 0 {
		m = CyclicMapping(cp.Workers)
	}
	return verify.Certify(g, cp, verify.Config{Mapping: m})
}

// noCheckpoint is the type of Verify's last parameter: unexported, so nil
// is the only value a caller outside the package can pass.
type noCheckpoint struct{}

// RunCompiled executes an explicitly pre-compiled program (see Compile)
// with kernel k, bypassing the cache. The program's baked-in mapping
// governs, not the engine's, and so does its width: a program compiled
// for fewer workers than the engine has runs on that many (the caller is
// worker 0, so a 1-worker program starts no goroutine), and Stats and
// Progress report those workers. An engine armed with Options.Steal runs
// only programs compiled for its own worker count.
func (e *Engine) RunCompiled(cp *CompiledProgram, k Kernel) error {
	return e.RunCompiledContext(context.Background(), cp, k)
}

// RunCompiledContext is RunCompiled with cancellation.
func (e *Engine) RunCompiledContext(ctx context.Context, cp *CompiledProgram, k Kernel) error {
	ctx, cancel := deadlineContext(ctx, e.opts.Timeout)
	defer cancel()
	return e.core.RunCompiledContext(ctx, cp, k)
}

// Run implements Runtime: closure programs take the ordinary (uncached)
// replay path.
func (e *Engine) Run(numData int, prog Program) error {
	return e.RunContext(context.Background(), numData, prog)
}

// RunContext implements Runtime. With Options.Preflight set the program
// is analyzed in record mode (no task body executes) before every run.
func (e *Engine) RunContext(ctx context.Context, numData int, prog Program) error {
	if e.opts.Preflight != 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("rio: run not started: %w", context.Cause(ctx))
		}
		if err := preflightProgram(numData, prog, e.opts, e.core.NumWorkers()); err != nil {
			return err
		}
	}
	ctx, cancel := deadlineContext(ctx, e.opts.Timeout)
	defer cancel()
	return e.core.RunContext(ctx, numData, prog)
}

// SetMapping replaces the engine's task mapping (nil restores the cyclic
// default) and flushes the compiled-program cache: cached streams bake
// the old task→worker assignment in and would execute tasks on the wrong
// workers. Programs compiled explicitly via Compile are unaffected. Must
// not be called while a run is in flight.
func (e *Engine) SetMapping(m Mapping) {
	if m == nil {
		m = CyclicMapping(e.core.NumWorkers())
	}
	e.mapping = m
	e.mu.Lock()
	e.cache = make(map[*Graph]*CompiledProgram)
	e.mu.Unlock()
	e.core.SetMapping(m)
}

// CacheStats reports the compiled-program cache's hit/miss counters and
// current size. Callable from any goroutine.
func (e *Engine) CacheStats() (hits, misses int64, entries int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses, len(e.cache)
}

// Stats implements Runtime.
func (e *Engine) Stats() *Stats { return e.core.Stats() }

// Progress implements Runtime: a snapshot of the always-on run counters,
// callable from any goroutine while a run (closure or compiled) is in
// flight.
func (e *Engine) Progress() Progress { return e.core.Progress() }

// Name implements Runtime. (Before the Engine became the default InOrder
// runtime it reported "rio-compiled"; both its replay paths are the same
// RIO protocol, so it now reports the model name.)
func (e *Engine) Name() string { return "rio" }

// NumWorkers implements Runtime.
func (e *Engine) NumWorkers() int { return e.core.NumWorkers() }
