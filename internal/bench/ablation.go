package bench

import (
	"fmt"

	"rio/internal/centralized"
	"rio/internal/core"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/stf"
	"rio/internal/trace"
)

// Ablation studies for the design choices of both execution models:
//
//   - centralized dispatch strategy (single FIFO vs work-stealing deques,
//     hinted or not) — the "scheduling heuristics" axis of §3.1;
//   - submission-window size — the task-storage bound of the centralized
//     model (its space is linear in in-flight tasks, §3.1);
//   - RIO's wait spin budget — the busy-poll/yield/park escalation of the
//     decentralized synchronization waits;
//   - mapping quality — the paper's central assumption that a proper
//     static mapping is supplied (§3.2): good vs oblivious mappings on
//     dependency-heavy graphs;
//   - trace instrumentation overhead — why the paper's evaluation avoids
//     dumping traces at fine granularity (§5.1).

// AblationConfig parameterizes the ablation suite.
type AblationConfig struct {
	// Workers, Warmup, Reps as elsewhere.
	Workers      int
	Warmup, Reps int
	// TaskSize is the synthetic kernel size used throughout (fine-grained
	// by default in the CLI).
	TaskSize uint64
	// Tasks scales the workloads.
	Tasks int
}

func (c AblationConfig) check() error {
	if c.Workers < 2 || c.Tasks < 1 {
		return fmt.Errorf("bench: bad ablation config %+v", c)
	}
	return nil
}

// SchedulerAblation compares the centralized engine's dispatch strategies
// on the LU graph.
func SchedulerAblation(cfg AblationConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	nt := 2
	for graphs.LUTaskCount(nt+1) <= cfg.Tasks {
		nt++
	}
	g := graphs.LU(nt)
	hint := sched.Cyclic(cfg.Workers - 1) // executor IDs
	variants := []struct {
		name string
		opts centralized.Options
	}{
		{"fifo", centralized.Options{Workers: cfg.Workers}},
		{"ws", centralized.Options{Workers: cfg.Workers, Scheduler: centralized.WorkStealing}},
		{"ws+hint", centralized.Options{Workers: cfg.Workers, Scheduler: centralized.WorkStealing, Hint: hint}},
		{"prio", centralized.Options{Workers: cfg.Workers, Scheduler: centralized.Priority}},
	}
	var rows []Row
	for _, v := range variants {
		e, err := centralized.New(v.opts)
		if err != nil {
			return nil, err
		}
		row, err := ablationRun(e, g, cfg, "ablation-sched", v.name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WindowAblation sweeps the centralized submission window on the
// random-dependency graph.
func WindowAblation(cfg AblationConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	g := graphs.RandomDeps(cfg.Tasks, 128, 2, 1, 42)
	var rows []Row
	for _, window := range []int{1, 4, 16, 64, 256, 0} {
		e, err := centralized.New(centralized.Options{Workers: cfg.Workers, Window: window})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("window=%d", window)
		if window == 0 {
			name = "window=∞"
		}
		row, err := ablationRun(e, g, cfg, "ablation-window", name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SpinAblation sweeps RIO's wait spin budget on the dependency-heavy LU
// graph.
func SpinAblation(cfg AblationConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	nt := 2
	for graphs.LUTaskCount(nt+1) <= cfg.Tasks {
		nt++
	}
	g := graphs.LU(nt)
	m := sched.OwnerComputes(g, sched.NewGrid2D(cfg.Workers))
	var rows []Row
	for _, spin := range []int{1, 16, 128, 1024, 8192} {
		e, err := core.New(core.Options{Workers: cfg.Workers, Mapping: m, SpinLimit: spin})
		if err != nil {
			return nil, err
		}
		row, err := ablationRun(e, g, cfg, "ablation-spin", fmt.Sprintf("spin=%d", spin))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MappingAblation contrasts mapping qualities on the wavefront graph under
// RIO — the paper's "proper task mapping supplied by the programmer"
// assumption made measurable.
func MappingAblation(cfg AblationConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	side := 4
	for (side+1)*(side+1) <= cfg.Tasks {
		side++
	}
	g := graphs.Wavefront(side, side)
	rowBand := (side + cfg.Workers - 1) / cfg.Workers
	mappings := []struct {
		name string
		m    stf.Mapping
	}{
		{"row-block", sched.FromTask(g, func(t *stf.Task) stf.WorkerID {
			w := t.I / rowBand
			if w >= cfg.Workers {
				w = cfg.Workers - 1
			}
			return stf.WorkerID(w)
		})},
		{"owner-2d", sched.OwnerComputes(g, sched.NewGrid2D(cfg.Workers))},
		{"cyclic", sched.Cyclic(cfg.Workers)},
		{"single-worker", sched.Single(0)},
		{"dynamic-claim", sched.Partial(sched.Cyclic(cfg.Workers), func(stf.TaskID) bool { return true })},
		{"automap", sched.AutoMap(g, cfg.Workers, nil).Mapping},
	}
	var rows []Row
	for _, v := range mappings {
		e, err := core.New(core.Options{Workers: cfg.Workers, Mapping: v.m})
		if err != nil {
			return nil, err
		}
		row, err := ablationRun(e, g, cfg, "ablation-mapping", v.name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SparseAblation contrasts the proportional mapping (the paper's cited
// technique for sparse factorization trees) against tree-oblivious
// mappings on a multifrontal sparse-Cholesky task flow. Task durations
// scale with node weight (Task.K), as frontal factorizations do.
func SparseAblation(cfg AblationConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	tree := graphs.RandomETree(cfg.Tasks, 4, 11)
	g := graphs.SparseCholesky(tree)
	cells := kernels.NewCells(cfg.Workers)
	kern := func(t *stf.Task, w stf.WorkerID) {
		idx := int(w)
		if idx < 0 {
			idx = 0
		}
		kernels.Spin(cells.Cell(idx), cfg.TaskSize*uint64(t.K))
	}
	mappings := []struct {
		name string
		m    stf.Mapping
	}{
		{"proportional", sched.Proportional(tree, cfg.Workers)},
		{"cyclic", sched.Cyclic(cfg.Workers)},
		{"block", sched.Block(len(g.Tasks), cfg.Workers)},
	}
	var rows []Row
	for _, v := range mappings {
		e, err := core.New(core.Options{Workers: cfg.Workers, Mapping: v.m})
		if err != nil {
			return nil, err
		}
		wall, st, err := Measure(e, g.NumData, stf.Replay(g, kern), cfg.Warmup, cfg.Reps)
		if err != nil {
			return nil, fmt.Errorf("ablation-sparse/%s: %w", v.name, err)
		}
		taskCum, _, _ := st.Cumulative()
		var eff trace.Efficiency
		if taskCum > 0 {
			eff = trace.Decompose(taskCum, taskCum, st)
		}
		rows = append(rows, Row{
			Experiment: "ablation-sparse",
			Workload:   g.Name,
			Engine:     v.name,
			Workers:    cfg.Workers,
			TaskSize:   cfg.TaskSize,
			Tasks:      st.Executed(),
			Wall:       wall,
			PerTask:    perTask(wall, cfg.Workers, st.Executed()),
			Eff:        eff,
		})
	}
	return rows, nil
}

// TraceOverhead measures the cost of span recording at fine granularity —
// the effect the paper's methodology avoids by using aggregate accounting.
func TraceOverhead(cfg AblationConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	g := graphs.Independent(cfg.Tasks)
	m := sched.Cyclic(cfg.Workers)
	cells := kernels.NewCells(cfg.Workers)
	plain := graphs.CounterKernel(cells, cfg.TaskSize)
	rec := trace.NewRecorder(cfg.Workers)
	instrumented := rec.Instrument(plain)

	var rows []Row
	for _, v := range []struct {
		name string
		k    stf.Kernel
	}{{"plain", plain}, {"traced", instrumented}} {
		e, err := core.New(core.Options{Workers: cfg.Workers, Mapping: m})
		if err != nil {
			return nil, err
		}
		rec.Reset()
		wall, st, err := Measure(e, g.NumData, stf.Replay(g, v.k), cfg.Warmup, cfg.Reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Experiment: "ablation-trace",
			Workload:   g.Name,
			Engine:     "rio/" + v.name,
			Workers:    cfg.Workers,
			TaskSize:   cfg.TaskSize,
			Tasks:      st.Executed(),
			Wall:       wall,
			PerTask:    perTask(wall, cfg.Workers, st.Executed()),
		})
	}
	return rows, nil
}

// Ablations runs the whole suite.
func Ablations(cfg AblationConfig) ([]Row, error) {
	var rows []Row
	for _, f := range []func(AblationConfig) ([]Row, error){
		SchedulerAblation, WindowAblation, SpinAblation, MappingAblation, SparseAblation, TraceOverhead,
	} {
		r, err := f(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func ablationRun(e Engine, g *stf.Graph, cfg AblationConfig, experiment, variant string) (Row, error) {
	cells := kernels.NewCells(cfg.Workers)
	kern := graphs.CounterKernel(cells, cfg.TaskSize)
	wall, st, err := Measure(e, g.NumData, stf.Replay(g, kern), cfg.Warmup, cfg.Reps)
	if err != nil {
		return Row{}, fmt.Errorf("%s/%s: %w", experiment, variant, err)
	}
	taskCum, _, _ := st.Cumulative()
	var eff trace.Efficiency
	if taskCum > 0 {
		eff = trace.Decompose(taskCum, taskCum, st)
	}
	return Row{
		Experiment: experiment,
		Workload:   g.Name,
		Engine:     variant,
		Workers:    cfg.Workers,
		TaskSize:   cfg.TaskSize,
		Tasks:      st.Executed(),
		Wall:       wall,
		PerTask:    perTask(wall, cfg.Workers, st.Executed()),
		Eff:        eff,
	}, nil
}
