package bench

import (
	"fmt"
	"time"

	"rio/internal/core"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// Work-stealing ablation (the `rio-bench steal` subcommand): the hybrid
// execution model's headline matrix — {balanced, skewed} mapping ×
// {steal off, steal on} — through both entry points: the `rio` rows are a
// closure Run (plain closure replay with steal off; with steal on the
// engine records and compiles the program on every run, so the row prices
// that too), the `rio-compiled` rows replay one precompiled program. Either
// way thieves read the compiled program's precomputed steal metadata. The
// workload is a flow of independent tasks whose bodies *sleep* rather than
// compute:
//
//   - skewed + steal off is the adversarial case the preflight's RIO-M004
//     serialization bound predicts: every task is mapped to worker 0, so
//     the run degenerates to the sequential sum of task durations while
//     p−1 workers sit idle after their (instant) declare-only replay;
//   - skewed + steal on is the escape hatch: the idle workers drain
//     worker 0's backlog through the claim table and the run approaches
//     max(critical path, n/p) — here n·d/p, since the flow has no
//     dependencies;
//   - the balanced rows bound the cost of arming the policy when there is
//     nothing worth stealing.
//
// Sleeping bodies (I/O-like tasks) make the ablation meaningful on any
// host, including a single hardware thread: a sleeping task holds no
// core, so p workers overlap p sleeps regardless of GOMAXPROCS, and the
// wall-clock ratio measures the scheduling model alone. A compute-bound
// skewed flow shows the same escape only when real cores exist to absorb
// the stolen work.
//
// Each row reports wall time, ns/task and process CPU time: stealing must
// buy its wall-clock win with bounded probing, not by spinning the idle
// workers (the drain path yields and parks between failed probes).

// StealConfig parameterizes the work-stealing ablation.
type StealConfig struct {
	// Workers is the thread count p.
	Workers int
	// Tasks is the flow length n (independent tasks).
	Tasks int
	// TaskDur is each task body's sleep duration.
	TaskDur time.Duration
	// Warmup, Reps as elsewhere.
	Warmup, Reps int
}

func (c StealConfig) check() error {
	if c.Workers < 2 || c.Tasks < c.Workers || c.TaskDur <= 0 {
		return fmt.Errorf("bench: bad steal config %+v", c)
	}
	return nil
}

// StealAblation measures the mapping × stealing matrix through both entry
// points.
func StealAblation(cfg StealConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	p := cfg.Workers
	g := graphs.Independent(cfg.Tasks)
	kern := func(*stf.Task, stf.WorkerID) { time.Sleep(cfg.TaskDur) }

	mappings := []struct {
		name string
		m    stf.Mapping
	}{
		{"balanced", sched.Cyclic(p)},
		{"skewed", sched.Single(0)},
	}

	var rows []Row
	for _, mp := range mappings {
		compiled, err := stf.Compile(g, mp.m, p, nil)
		if err != nil {
			return nil, err
		}
		for _, stealing := range []bool{false, true} {
			var pol *stf.StealPolicy
			policy := mp.name + "/steal=off"
			if stealing {
				// The ranked victim list the preflight's RIO-M010 finding
				// suggests: overloaded owners first.
				pol = &stf.StealPolicy{Victims: sched.RankVictims(g, mp.m, p)}
				policy = mp.name + "/steal=on"
			}
			variants := []struct {
				engine string
				run    func(e *core.Engine) error
			}{
				{"rio", func(e *core.Engine) error {
					return e.Run(g.NumData, stf.Replay(g, kern))
				}},
				{"rio-compiled", func(e *core.Engine) error {
					return e.RunCompiled(compiled, kern)
				}},
			}
			for _, v := range variants {
				e, err := core.New(core.Options{Workers: p, Mapping: mp.m, Steal: pol})
				if err != nil {
					return nil, err
				}
				run := v.run
				wall, cpu, st, err := MeasureRunCPU(func() error { return run(e) }, e.Stats, cfg.Warmup, cfg.Reps)
				if err != nil {
					return nil, fmt.Errorf("steal/%s/%s: %w", v.engine, policy, err)
				}
				rows = append(rows, Row{
					Experiment: "steal",
					Workload:   "independent+sleep",
					Engine:     v.engine,
					Policy:     policy,
					Workers:    p,
					// TaskSize carries the body's sleep in nanoseconds (the
					// counter-loop column does not apply to sleeping bodies).
					TaskSize: uint64(cfg.TaskDur.Nanoseconds()),
					Tasks:    st.Executed(),
					Wall:     wall,
					PerTask:  perTask(wall, p, st.Executed()),
					CPU:      cpu,
				})
			}
		}
	}
	return rows, nil
}
