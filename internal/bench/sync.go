package bench

import (
	"fmt"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/stf"
)

// Synchronization measurement (the `rio-bench sync` subcommand): RIO's
// dependency wait — adaptive spin, yield, then event-gate park — on
// workloads chosen to bracket the design space:
//
//   - readers-writer   — rounds of one writer followed by many parallel
//     reads of a single data object: every task blocks on the previous
//     hand-off through one shared cell, so the run is almost nothing but
//     the wait path (the high-contention worst case);
//   - reduce-rounds    — same shape with commutative reductions, driving
//     the terminate_red wake path;
//   - readers-writer+block — the same contention shape with task bodies
//     that sleep instead of compute (I/O-like tasks): the producer holds
//     no core while it "works", so a spinning waiter burns CPU the
//     compute-bound shape hides behind the producer's own occupancy;
//   - independent      — the Fig 7 weak-scaling flow on the compiled
//     replay path: no dependencies, so waits are rare and the row shows
//     what the wait costs when there is nothing to wait for.
//
// Each row reports wall time, ns/task AND process CPU time: on the
// contended workloads a wait that spins longer can hold wall time while
// burning p× the compute, which only the CPU column shows.

// SyncConfig parameterizes the synchronization measurement.
type SyncConfig struct {
	// Workers is the thread count p.
	Workers int
	// Rounds and Readers shape the contended workloads: Rounds rounds of
	// one writer followed by Readers readers (or reducers) of the single
	// shared data object.
	Rounds, Readers int
	// TasksPerWorker scales the uncontended replay flow:
	// n = TasksPerWorker · Workers independent tasks.
	TasksPerWorker int
	// TaskSize is the counter kernel's loop count; keep it small — the
	// point is synchronization overhead, not task work.
	TaskSize uint64
	// BlockDur is the sleeping task body of the readers-writer+block
	// workload (0 disables that workload).
	BlockDur time.Duration
	// Warmup, Reps as elsewhere.
	Warmup, Reps int
}

func (c SyncConfig) check() error {
	if c.Workers < 2 || c.Rounds < 1 || c.Readers < 1 || c.TasksPerWorker < 1 {
		return fmt.Errorf("bench: bad sync config %+v", c)
	}
	return nil
}

// SyncAblation measures the dependency wait on the contended and
// uncontended workloads.
func SyncAblation(cfg SyncConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	p := cfg.Workers
	m := sched.Cyclic(p)
	cells := kernels.NewCells(p)
	kern := graphs.CounterKernel(cells, cfg.TaskSize)

	contended := []*stf.Graph{
		graphs.ReadersWriter(cfg.Rounds, cfg.Readers),
		graphs.ReduceRounds(cfg.Rounds, cfg.Readers),
	}
	uncontended := graphs.Independent(cfg.TasksPerWorker * p)
	compiled, err := rio.Compile(uncontended, p, m, false)
	if err != nil {
		return nil, err
	}

	var rows []Row
	measure := func(g *stf.Graph, engine string, run func(*rio.Engine) error) error {
		e, err := rio.NewEngine(rio.Options{Workers: p, Mapping: m})
		if err != nil {
			return err
		}
		wall, cpu, st, err := MeasureRunCPU(func() error { return run(e) }, e.Stats, cfg.Warmup, cfg.Reps)
		if err != nil {
			return fmt.Errorf("sync/%s/%s: %w", g.Name, engine, err)
		}
		rows = append(rows, Row{
			Experiment: "sync",
			Workload:   g.Name,
			Engine:     engine,
			Workers:    p,
			TaskSize:   cfg.TaskSize,
			Tasks:      st.Executed(),
			Wall:       wall,
			PerTask:    perTask(wall, p, st.Executed()),
			CPU:        cpu,
		})
		return nil
	}

	blocking := graphs.ReadersWriter(cfg.Rounds, cfg.Readers)
	blocking.Name += "+block"
	blockKern := func(*stf.Task, stf.WorkerID) { time.Sleep(cfg.BlockDur) }

	for _, g := range contended {
		g := g
		err := measure(g, "rio", func(e *rio.Engine) error {
			return e.Run(g.NumData, stf.Replay(g, kern))
		})
		if err != nil {
			return nil, err
		}
	}
	if cfg.BlockDur > 0 {
		err := measure(blocking, "rio", func(e *rio.Engine) error {
			return e.Run(blocking.NumData, stf.Replay(blocking, blockKern))
		})
		if err != nil {
			return nil, err
		}
	}
	err = measure(uncontended, "rio-compiled", func(e *rio.Engine) error {
		return e.RunCompiled(compiled, kern)
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
