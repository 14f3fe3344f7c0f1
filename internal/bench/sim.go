package bench

import (
	"fmt"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/sim"
	"rio/internal/stf"
)

// Simulation bridge: fit the execution models' per-task cost constants
// from the real engines on this machine, then replay the paper's
// experiments on an *ideal* machine with the paper's worker count through
// internal/sim. This sidesteps the two measurement gates of this
// environment — few hardware threads, and Go scheduler/GC noise at
// sub-microsecond task sizes — while keeping the constants grounded in
// measurements.

// SimConfig parameterizes the simulated reproduction.
type SimConfig struct {
	// SimWorkers is the simulated thread count (the paper's evaluation
	// uses 24).
	SimWorkers int
	// FitWorkers/FitTasks control the micro-runs used to fit the cost
	// constants on the real engines.
	FitWorkers, FitTasks int
	// Tasks and TaskSizes define the simulated workloads (§5.1 sizes).
	Tasks     int
	TaskSizes []uint64
	// Seed feeds the random-dependency workload.
	Seed int64
	// Warmup, Reps for the fitting runs.
	Warmup, Reps int
}

// FittedCosts holds the measured constants used by the simulation.
type FittedCosts struct {
	// RIO and Centralized are the per-model cost constants.
	RIO, Centralized sim.Costs
	// NsPerOp calibrates counter-loop iterations to time.
	NsPerOp float64
}

// FitCosts measures the cost constants:
//
//   - RIO DeclareCost: a worker owning nothing processes the whole flow —
//     its wall time per task is the pure declare cost;
//   - RIO Acquire+Release: the owning worker's per-task time minus the
//     kernel; split evenly between the two;
//   - Centralized DispatchCost: master-bound wall per task with near-empty
//     bodies (eq. (1)'s t_r); CompleteCost: a third of it (successor
//     release and queue traffic happen on the worker side).
func FitCosts(cfg SimConfig) (*FittedCosts, error) {
	if cfg.FitWorkers < 2 || cfg.FitTasks < 1 {
		return nil, fmt.Errorf("bench: bad fit config %+v", cfg)
	}
	calib := kernels.Calibrate(20 * time.Millisecond)
	out := &FittedCosts{NsPerOp: calib.NsPerOp}
	g := graphs.RandomDeps(cfg.FitTasks, 64, 2, 1, 7)
	n := float64(cfg.FitTasks)

	// RIO micro-run: everything owned by worker 0.
	e, err := rio.New(rio.Options{Workers: 2, Mapping: sched.Single(0)})
	if err != nil {
		return nil, err
	}
	cells := kernels.NewCells(2)
	prog := stf.Replay(g, graphs.CounterKernel(cells, 1))
	if _, st, err := Measure(e, g.NumData, prog, cfg.Warmup, max(1, cfg.Reps)); err != nil {
		return nil, err
	} else {
		declare := float64(st.Workers[1].Wall.Nanoseconds()) / n
		ownPer := float64(st.Workers[0].Wall.Nanoseconds())/n - calib.NsPerOp
		if ownPer < 0 {
			ownPer = 0
		}
		out.RIO = sim.Costs{
			DeclareCost: time.Duration(declare),
			AcquireCost: time.Duration(ownPer / 2),
			ReleaseCost: time.Duration(ownPer / 2),
		}
	}

	// Centralized micro-run: master-bound with near-empty bodies.
	ce, err := rio.New(rio.Options{Model: rio.Centralized, Workers: cfg.FitWorkers})
	if err != nil {
		return nil, err
	}
	cells = kernels.NewCells(cfg.FitWorkers)
	prog = stf.Replay(graphs.Independent(cfg.FitTasks), graphs.CounterKernel(cells, 1))
	if wall, _, err := Measure(ce, 0, prog, cfg.Warmup, max(1, cfg.Reps)); err != nil {
		return nil, err
	} else {
		tr := float64(wall.Nanoseconds()) / n
		out.Centralized = sim.Costs{
			DispatchCost: time.Duration(tr),
			CompleteCost: time.Duration(tr / 3),
		}
	}
	return out, nil
}

// SimFig8 regenerates Figure 8's four experiments on SimWorkers simulated
// threads under the given cost constants — FitCosts' measurement of this
// machine, or any fixed set — reporting the same e_p/e_r decomposition the
// paper plots. The simulation itself is deterministic: the same costs give
// the same rows.
func SimFig8(cfg SimConfig, costs *FittedCosts) ([]Row, error) {
	if cfg.SimWorkers < 2 || cfg.Tasks < 1 || len(cfg.TaskSizes) == 0 || costs == nil {
		return nil, fmt.Errorf("bench: bad sim config %+v", cfg)
	}
	var rows []Row
	for _, exp := range []Fig8Experiment{Exp1Independent, Exp2RandomDeps, Exp3GEMM, Exp4LU} {
		ccfg := CounterConfig{Workers: cfg.SimWorkers, Tasks: cfg.Tasks, TaskSizes: cfg.TaskSizes, Seed: cfg.Seed, Reps: 1}
		g, mapping, err := fig8Workload(exp, ccfg)
		if err != nil {
			return nil, err
		}
		for _, size := range cfg.TaskSizes {
			dur := time.Duration(float64(size) * costs.NsPerOp)
			w := sim.UniformWorkload(g, dur)

			r1, err := sim.SimulateRIO(w, cfg.SimWorkers, mapping, costs.RIO)
			if err != nil {
				return nil, err
			}
			rows = append(rows, simRow(exp, "sim-rio", cfg.SimWorkers, size, g, r1))

			r2, err := sim.SimulateCentralized(w, cfg.SimWorkers, costs.Centralized)
			if err != nil {
				return nil, err
			}
			rows = append(rows, simRow(exp, "sim-centralized", cfg.SimWorkers, size, g, r2))
		}
	}
	return rows, nil
}

// SimFig7 regenerates Figure 7 at the paper's scale (64 workers on the
// EPYC 7702, 2^15 independent tasks per worker) in simulation: total
// execution time at fixed per-worker load as the worker count grows. The
// decentralized model's total bookkeeping grows with p²·n (every worker
// declares everyone's tasks), which is the paper's point; with pruning the
// declare term vanishes and the curve goes flat.
func SimFig7(cfg SimConfig, tasksPerWorker int, maxWorkers int, taskSize uint64) ([]Row, *FittedCosts, error) {
	if tasksPerWorker < 1 || maxWorkers < 1 {
		return nil, nil, fmt.Errorf("bench: bad sim-fig7 config")
	}
	costs, err := FitCosts(cfg)
	if err != nil {
		return nil, nil, err
	}
	dur := time.Duration(float64(taskSize) * costs.NsPerOp)
	var rows []Row
	for p := 1; p <= maxWorkers; p *= 2 {
		g := graphs.Independent(tasksPerWorker * p)
		w := sim.UniformWorkload(g, dur)
		m := sched.Cyclic(p)

		full, err := sim.SimulateRIO(w, p, m, costs.RIO)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Row{
			Experiment: "sim-fig7", Workload: fmt.Sprintf("independent %d/worker", tasksPerWorker),
			Engine: "sim-rio", Workers: p, TaskSize: taskSize,
			Tasks: int64(len(g.Tasks)), Wall: full.Makespan,
			PerTask: perTask(full.Makespan, p, int64(len(g.Tasks))),
		})

		// Pruned: independent tasks make every foreign task prunable, so
		// the declare cost disappears entirely.
		pruned, err := sim.SimulateRIO(w, p, m, sim.Costs{
			AcquireCost: costs.RIO.AcquireCost,
			ReleaseCost: costs.RIO.ReleaseCost,
		})
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Row{
			Experiment: "sim-fig7", Workload: fmt.Sprintf("independent %d/worker", tasksPerWorker),
			Engine: "sim-rio-pruned", Workers: p, TaskSize: taskSize,
			Tasks: int64(len(g.Tasks)), Wall: pruned.Makespan,
			PerTask: perTask(pruned.Makespan, p, int64(len(g.Tasks))),
		})
	}
	return rows, costs, nil
}

func simRow(exp Fig8Experiment, engine string, p int, size uint64, g *stf.Graph, r *sim.Result) Row {
	return Row{
		Experiment: "sim-fig8-" + exp.String(),
		Workload:   g.Name,
		Engine:     engine,
		Workers:    p,
		TaskSize:   size,
		Tasks:      int64(len(g.Tasks)),
		Wall:       r.Makespan,
		PerTask:    perTask(r.Makespan, p, int64(len(g.Tasks))),
		Eff:        r.Efficiency(),
	}
}
