package bench

import (
	"fmt"
	"io"

	"rio/internal/core"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/stf"
	"rio/internal/trace"
)

// Replay ablation: how much of RIO's per-run cost is the replay term
// n·t_r of eq. (2), and how much of it compilation removes. The workload
// is the Fig 7 weak-scaling one (n = TasksPerWorker·p independent counter
// tasks, cyclic mapping) because with no dependencies and negligible
// bodies the run is almost pure replay overhead. Variants:
//
//   - closure          — stf.Replay through the Submitter interface, the
//     default path (divergence guard on);
//   - closure-noguard  — same with the guard off, isolating the guard's
//     share of t_r;
//   - compiled         — pre-lowered per-worker instruction streams
//     (guard-free by construction);
//   - compiled-pruned  — streams with §3.5 pruning applied at compile
//     time; for independent tasks a worker's stream shrinks to just its
//     own n/p executions.
//
// Independent tasks have no accesses, so none of those rows prices the
// protocol itself. A second flow does: the same n tasks, each doing
// RW(i mod 64p) — 64p chains, every chain on one worker under the cyclic
// mapping, so no datum ever crosses workers. Variants:
//
//   - chain-canonical   — every access lowered to get/exec/terminate
//     (three micro-ops per task, the shared-cell atomics of Algorithm 2):
//     the streams before uncontended-data elision, and what an engine with
//     work stealing armed still runs;
//   - chain-elided      — stf.Compile's default lowering: the data are
//     uncontended, the stream is bare execs;
//   - chain-centralized — the centralized FIFO engine on the same flow and
//     kernel, the Fig 6 comparison point for "how small a task pays off".

// ReplayConfig parameterizes the replay ablation.
type ReplayConfig struct {
	// Workers is the thread count p.
	Workers int
	// TasksPerWorker scales the flow: n = TasksPerWorker · Workers.
	TasksPerWorker int
	// TaskSize is the counter kernel's loop count (keep small: the point
	// is replay overhead, not task work).
	TaskSize uint64
	// Warmup, Reps as elsewhere.
	Warmup, Reps int
}

func (c ReplayConfig) check() error {
	if c.Workers < 1 || c.TasksPerWorker < 1 {
		return fmt.Errorf("bench: bad replay config %+v", c)
	}
	return nil
}

// WriteReplayChromeTrace runs the replay workload once — compiled path,
// spans recorded — and writes a graph-aware Chrome trace (task slices,
// ready/executed counter rows, dependency flow arrows) to w. The traced
// run is separate from the measured ones: recording perturbs fine-grained
// timings, so ReplayAblation's rows stay recorder-free.
func WriteReplayChromeTrace(w io.Writer, cfg ReplayConfig) error {
	if err := cfg.check(); err != nil {
		return err
	}
	p := cfg.Workers
	g := graphs.Independent(cfg.TasksPerWorker * p)
	m := sched.Cyclic(p)
	cells := kernels.NewCells(p)
	rec := trace.NewRecorder(p)
	kern := rec.Instrument(graphs.CounterKernel(cells, cfg.TaskSize))

	cp, err := stf.Compile(g, m, p, nil)
	if err != nil {
		return err
	}
	e, err := core.New(core.Options{Workers: p, Mapping: m})
	if err != nil {
		return err
	}
	if err := e.RunCompiled(cp, kern); err != nil {
		return err
	}
	return rec.WriteChromeTraceGraph(w, g, nil)
}

// ReplayAblation measures the four replay variants on the Fig 7 workload.
func ReplayAblation(cfg ReplayConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	p := cfg.Workers
	g := graphs.Independent(cfg.TasksPerWorker * p)
	m := sched.Cyclic(p)
	cells := kernels.NewCells(p)
	kern := graphs.CounterKernel(cells, cfg.TaskSize)

	compiled, err := stf.Compile(g, m, p, nil)
	if err != nil {
		return nil, err
	}
	pruned, err := stf.Compile(g, m, p, sched.Relevant(g, m, p))
	if err != nil {
		return nil, err
	}

	type variant struct {
		name    string
		noGuard bool
		cp      *stf.CompiledProgram
	}
	variants := []variant{
		{"closure", false, nil},
		{"closure-noguard", true, nil},
		{"compiled", false, compiled},
		{"compiled-pruned", false, pruned},
	}
	var rows []Row
	for _, v := range variants {
		e, err := core.New(core.Options{Workers: p, Mapping: m, NoGuard: v.noGuard})
		if err != nil {
			return nil, err
		}
		run := func() error { return e.Run(g.NumData, stf.Replay(g, kern)) }
		if v.cp != nil {
			cp := v.cp
			run = func() error { return e.RunCompiled(cp, kern) }
		}
		wall, st, err := MeasureRun(run, e.Stats, cfg.Warmup, cfg.Reps)
		if err != nil {
			return nil, fmt.Errorf("replay/%s: %w", v.name, err)
		}
		rows = append(rows, Row{
			Experiment: "replay",
			Workload:   g.Name,
			Engine:     v.name,
			Workers:    p,
			TaskSize:   cfg.TaskSize,
			Tasks:      st.Executed(),
			Wall:       wall,
			PerTask:    perTask(wall, p, st.Executed()),
		})
	}
	chainRows, err := chainReplay(cfg)
	if err != nil {
		return nil, err
	}
	return append(rows, chainRows...), nil
}

// chainReplay measures the single-owner chain flow of the replay ablation.
func chainReplay(cfg ReplayConfig) ([]Row, error) {
	p := cfg.Workers
	kern := graphs.CounterKernel(kernels.NewCells(max(p, 2)), cfg.TaskSize)
	g := stf.NewGraph("chain-private", 64*p)
	for i := 0; i < cfg.TasksPerWorker*p; i++ {
		g.Add(graphs.KCounter, i, 0, 0, stf.RW(stf.DataID(i%(64*p))))
	}
	m := sched.Cyclic(p)
	canonical, err := stf.CompileCanonical(g, m, p, nil)
	if err != nil {
		return nil, err
	}
	elided, err := stf.Compile(g, m, p, nil)
	if err != nil {
		return nil, err
	}
	e, err := core.New(core.Options{Workers: p, Mapping: m})
	if err != nil {
		return nil, err
	}
	cen, err := NewEngine(CentralizedFIFO, max(p, 2), nil)
	if err != nil {
		return nil, err
	}
	prog := stf.Replay(g, kern)
	var rows []Row
	for _, v := range []struct {
		name    string
		workers int
		run     func() error
		stats   func() *trace.Stats
	}{
		{"chain-canonical", p, func() error { return e.RunCompiled(canonical, kern) }, e.Stats},
		{"chain-elided", p, func() error { return e.RunCompiled(elided, kern) }, e.Stats},
		{"chain-centralized", max(p, 2), func() error { return cen.Run(g.NumData, prog) }, cen.Stats},
	} {
		wall, st, err := MeasureRun(v.run, v.stats, cfg.Warmup, cfg.Reps)
		if err != nil {
			return nil, fmt.Errorf("replay/%s: %w", v.name, err)
		}
		rows = append(rows, Row{
			Experiment: "replay",
			Workload:   g.Name,
			Engine:     v.name,
			Workers:    v.workers,
			TaskSize:   cfg.TaskSize,
			Tasks:      st.Executed(),
			Wall:       wall,
			PerTask:    perTask(wall, v.workers, st.Executed()),
		})
	}
	return rows, nil
}
