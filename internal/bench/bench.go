// Package bench is the experiment harness regenerating every table and
// figure of the paper's evaluation (§5 and §2.3): workload construction,
// repetition and median-taking, efficiency decomposition, and text-table
// rendering. Engines come from the public API (rio.New, rio.NewEngine), so
// the harness measures exactly what a caller of package rio runs. The
// cmd/rio-bench binary is a thin CLI over this package.
package bench

import (
	"sort"
	"time"

	"rio"
	"rio/internal/stf"
	"rio/internal/trace"
)

// Measure runs prog on e warmup+reps times and returns the median wall time
// together with the stats of the median run.
func Measure(e rio.Runtime, numData int, prog stf.Program, warmup, reps int) (time.Duration, *trace.Stats, error) {
	wall, _, st, err := MeasureRunCPU(func() error { return e.Run(numData, prog) }, e.Stats, warmup, reps)
	return wall, st, err
}

// MeasureRunCPU is Measure over an arbitrary run thunk (closure replay,
// compiled replay, …) plus process-CPU accounting: warmup+reps runs, median
// wall time, stats of the median run as reported by stats() after each run,
// and the mean CPU time (user+system, whole process) per measured run, taken
// as a getrusage delta around the timed repetitions. Zero on platforms
// without rusage.
func MeasureRunCPU(run func() error, stats func() *trace.Stats, warmup, reps int) (time.Duration, time.Duration, *trace.Stats, error) {
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < warmup; i++ {
		if err := run(); err != nil {
			return 0, 0, nil, err
		}
	}
	type sample struct {
		wall  time.Duration
		stats trace.Stats
	}
	samples := make([]sample, 0, reps)
	cpu0 := cpuTime()
	for i := 0; i < reps; i++ {
		if err := run(); err != nil {
			return 0, 0, nil, err
		}
		st := *stats()
		samples = append(samples, sample{st.Wall, st})
	}
	cpu := (cpuTime() - cpu0) / time.Duration(reps)
	sort.Slice(samples, func(a, b int) bool { return samples[a].wall < samples[b].wall })
	med := samples[len(samples)/2]
	return med.wall, cpu, &med.stats, nil
}

// Row is one measurement line of a report: an engine on a workload at a
// given granularity, with its time and efficiency decomposition.
type Row struct {
	// Experiment identifies the figure/table ("fig6", "fig8-exp2", ...).
	Experiment string
	// Workload names the task graph.
	Workload string
	// Engine names the execution model.
	Engine string
	// Workers is the thread count p.
	Workers int
	// TaskSize is the synthetic kernel's loop count (the paper's "task
	// size [instructions]"), or the tile dimension for GEMM figures.
	TaskSize uint64
	// Tasks is the number of tasks executed.
	Tasks int64
	// Wall is the median end-to-end time t_p.
	Wall time.Duration
	// PerTask is Wall·p/Tasks − an effective per-task cumulative cost.
	PerTask time.Duration
	// CPU is the process CPU time (user+system) consumed per run, averaged
	// over the measured repetitions; zero when not measured. A wait that
	// spins longer can match on Wall while burning p× more CPU — this
	// column is what shows it.
	CPU time.Duration
	// Eff is the efficiency decomposition (zero-valued when not
	// applicable to the experiment).
	Eff trace.Efficiency
}
