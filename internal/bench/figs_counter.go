package bench

import (
	"fmt"
	"math"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/stf"
	"rio/internal/trace"
)

// CounterConfig parameterizes the synthetic-kernel experiments (Figures 6,
// 7 and 8). The defaults in cmd/rio-bench scale the paper's sizes down to
// laptop-class runs; every knob is a flag there.
type CounterConfig struct {
	// Workers is the thread count p for parallel engines.
	Workers int
	// Tasks is the total task count of fixed-size experiments.
	Tasks int
	// TaskSizes is the granularity sweep (counter-loop iterations).
	TaskSizes []uint64
	// Warmup and Reps control repetition; the median rep is reported.
	Warmup, Reps int
	// Seed feeds the random-dependency generator (Experiment 2).
	Seed int64
}

func (c CounterConfig) check() error {
	if c.Workers < 2 {
		return fmt.Errorf("bench: need at least 2 workers to compare engines, got %d", c.Workers)
	}
	if c.Tasks < 1 || len(c.TaskSizes) == 0 {
		return fmt.Errorf("bench: empty workload (tasks=%d, sizes=%d)", c.Tasks, len(c.TaskSizes))
	}
	return nil
}

// counterRun measures one execution model on one recorded graph with the
// counter kernel of the given size.
func counterRun(model rio.Model, cfg CounterConfig, g *stf.Graph, mapping stf.Mapping, size uint64) (time.Duration, *trace.Stats, error) {
	e, err := rio.New(rio.Options{Model: model, Workers: cfg.Workers, Mapping: mapping})
	if err != nil {
		return 0, nil, err
	}
	cells := kernels.NewCells(cfg.Workers)
	prog := stf.Replay(g, graphs.CounterKernel(cells, size))
	return Measure(e, g.NumData, prog, cfg.Warmup, cfg.Reps)
}

// Fig6 reproduces Figure 6: execution time of a fixed number of
// independent counter tasks for the centralized runtime versus RIO, as a
// function of task size. The expected shape: the centralized engine's time
// flattens at a floor set by the master's per-task management cost
// (eq. (1)'s n·t_r term), while RIO keeps scaling down with the task size.
func Fig6(cfg CounterConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	g := graphs.Independent(cfg.Tasks)
	var rows []Row
	for _, model := range []rio.Model{rio.InOrder, rio.Centralized} {
		for _, size := range cfg.TaskSizes {
			wall, st, err := counterRun(model, cfg, g, sched.Cyclic(cfg.Workers), size)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s size=%d: %w", model, size, err)
			}
			rows = append(rows, Row{
				Experiment: "fig6",
				Workload:   g.Name,
				Engine:     model.String(),
				Workers:    cfg.Workers,
				TaskSize:   size,
				Tasks:      st.Executed(),
				Wall:       wall,
				PerTask:    perTask(wall, cfg.Workers, st.Executed()),
			})
		}
	}
	return rows, nil
}

// Fig7Config parameterizes the weak-scaling experiment of Figure 7.
type Fig7Config struct {
	// MaxWorkers sweeps p from 1 (2 for the centralized engine) upward.
	MaxWorkers int
	// TasksPerWorker is the paper's 2^15 (scaled down by default).
	TasksPerWorker int
	// TaskSize is the fixed counter-loop size.
	TaskSize uint64
	// Warmup, Reps as in CounterConfig.
	Warmup, Reps int
	// WithPruned additionally measures RIO with per-worker task pruning
	// (§3.5), the paper's proposed mitigation of the unrolling overhead.
	WithPruned bool
	// WithCentralized additionally measures the centralized baseline.
	WithCentralized bool
}

// Fig7 reproduces Figure 7: total execution time of a fixed number of
// independent tasks *per worker* as the worker count grows. Because every
// RIO worker unrolls the whole flow, total unrolling work grows
// quadratically with p at fixed per-worker load — the decentralized model's
// main drawback. Task pruning removes it: each worker only unrolls its own
// tasks, and the curve flattens.
func Fig7(cfg Fig7Config) ([]Row, error) {
	if cfg.MaxWorkers < 1 || cfg.TasksPerWorker < 1 {
		return nil, fmt.Errorf("bench: bad fig7 config %+v", cfg)
	}
	var rows []Row
	for p := 1; p <= cfg.MaxWorkers; p++ {
		n := cfg.TasksPerWorker * p
		g := graphs.Independent(n)
		m := sched.Cyclic(p)
		cells := kernels.NewCells(p)
		kern := graphs.CounterKernel(cells, cfg.TaskSize)

		variants := []struct {
			name  string
			model rio.Model
			prog  stf.Program
			skip  bool
		}{
			{"rio", rio.InOrder, stf.Replay(g, kern), false},
			{"rio-pruned", rio.InOrder, sched.PrunedReplay(g, kern, sched.Relevant(g, m, p)), !cfg.WithPruned},
			{"centralized-fifo", rio.Centralized, stf.Replay(g, kern), !cfg.WithCentralized || p < 2},
		}
		for _, v := range variants {
			if v.skip {
				continue
			}
			e, err := rio.New(rio.Options{Model: v.model, Workers: p, Mapping: m})
			if err != nil {
				return nil, err
			}
			wall, st, err := Measure(e, g.NumData, v.prog, cfg.Warmup, cfg.Reps)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s p=%d: %w", v.name, p, err)
			}
			rows = append(rows, Row{
				Experiment: "fig7",
				Workload:   fmt.Sprintf("independent %d/worker", cfg.TasksPerWorker),
				Engine:     v.name,
				Workers:    p,
				TaskSize:   cfg.TaskSize,
				Tasks:      st.Executed(),
				Wall:       wall,
				PerTask:    perTask(wall, p, st.Executed()),
			})
		}
	}
	return rows, nil
}

// Fig8Experiment identifies one row of Figure 8.
type Fig8Experiment int

// The four synthetic experiments of §5.1.
const (
	Exp1Independent Fig8Experiment = iota + 1
	Exp2RandomDeps
	Exp3GEMM
	Exp4LU
)

// String names the experiment.
func (e Fig8Experiment) String() string {
	switch e {
	case Exp1Independent:
		return "exp1-independent"
	case Exp2RandomDeps:
		return "exp2-random"
	case Exp3GEMM:
		return "exp3-gemm"
	case Exp4LU:
		return "exp4-lu"
	}
	return fmt.Sprintf("exp%d", int(e))
}

// fig8Workload builds the experiment's task graph (sized to ≈ cfg.Tasks
// tasks) and the RIO mapping the paper's methodology assumes the
// programmer supplies: cyclic for experiments 1–2 (no better mapping exists
// for random dependencies — the point of Experiment 2), owner-computes 2-D
// block-cyclic for the linear-algebra graphs.
func fig8Workload(exp Fig8Experiment, cfg CounterConfig) (*stf.Graph, stf.Mapping, error) {
	switch exp {
	case Exp1Independent:
		g := graphs.Independent(cfg.Tasks)
		return g, sched.Cyclic(cfg.Workers), nil
	case Exp2RandomDeps:
		g := graphs.RandomDeps(cfg.Tasks, 128, 2, 1, cfg.Seed)
		return g, sched.Cyclic(cfg.Workers), nil
	case Exp3GEMM:
		nt := int(math.Cbrt(float64(cfg.Tasks)))
		if nt < 2 {
			nt = 2
		}
		g := graphs.GEMM(nt)
		return g, sched.OwnerComputes(g, sched.NewGrid2D(cfg.Workers)), nil
	case Exp4LU:
		nt := 2
		for graphs.LUTaskCount(nt+1) <= cfg.Tasks {
			nt++
		}
		g := graphs.LU(nt)
		return g, sched.OwnerComputes(g, sched.NewGrid2D(cfg.Workers)), nil
	}
	return nil, nil, fmt.Errorf("bench: unknown experiment %d", int(exp))
}

// Fig8 reproduces one row of Figure 8: the efficiency decomposition (e_p,
// e_r and their product; e_g = e_l = 1 by the synthetic kernel) as a
// function of task size, for RIO and the centralized baseline, on the
// experiment's task graph.
func Fig8(exp Fig8Experiment, cfg CounterConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	g, mapping, err := fig8Workload(exp, cfg)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, size := range cfg.TaskSizes {
		for _, model := range []rio.Model{rio.InOrder, rio.Centralized} {
			wall, st, err := counterRun(model, cfg, g, mapping, size)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s %s size=%d: %w", exp, model, size, err)
			}
			// With the synthetic counter kernel, t = t(g) = τ_{p,t} by
			// construction (§5.1): e_g = e_l = 1 and e = e_p · e_r, the
			// two factors Figure 8 plots.
			taskCum, _, _ := st.Cumulative()
			eff := trace.Decompose(taskCum, taskCum, st)
			rows = append(rows, Row{
				Experiment: "fig8-" + exp.String(),
				Workload:   g.Name,
				Engine:     model.String(),
				Workers:    cfg.Workers,
				TaskSize:   size,
				Tasks:      st.Executed(),
				Wall:       wall,
				PerTask:    perTask(wall, cfg.Workers, st.Executed()),
				Eff:        eff,
			})
		}
	}
	return rows, nil
}

// Fig8All runs all four experiments.
func Fig8All(cfg CounterConfig) ([]Row, error) {
	var rows []Row
	for _, exp := range []Fig8Experiment{Exp1Independent, Exp2RandomDeps, Exp3GEMM, Exp4LU} {
		r, err := Fig8(exp, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func perTask(wall time.Duration, p int, tasks int64) time.Duration {
	if tasks == 0 {
		return 0
	}
	return wall * time.Duration(p) / time.Duration(tasks)
}
