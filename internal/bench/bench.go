// Package bench is the experiment harness regenerating every table and
// figure of the paper's evaluation (§5 and §2.3): workload construction,
// engine setup, repetition and median-taking, efficiency decomposition, and
// text-table rendering. The cmd/rio-bench binary is a thin CLI over this
// package; root-level testing.B benchmarks reuse the same runners.
package bench

import (
	"fmt"
	"sort"
	"time"

	"rio/internal/centralized"
	"rio/internal/core"
	"rio/internal/sequential"
	"rio/internal/stf"
	"rio/internal/trace"
)

// Engine is the runtime surface the harness drives.
type Engine interface {
	Run(numData int, prog stf.Program) error
	Stats() *trace.Stats
	Name() string
	NumWorkers() int
}

// EngineKind selects an execution model in experiment configurations.
type EngineKind int

// Engine kinds compared across the paper's figures.
const (
	RIO EngineKind = iota
	CentralizedFIFO
	CentralizedWS
	CentralizedPrio
	Sequential
)

// String names the kind as used in report rows.
func (k EngineKind) String() string {
	switch k {
	case RIO:
		return "rio"
	case CentralizedFIFO:
		return "centralized-fifo"
	case CentralizedWS:
		return "centralized-ws"
	case CentralizedPrio:
		return "centralized-prio"
	case Sequential:
		return "sequential"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// NewEngine builds an engine of the given kind with p threads and an
// optional static mapping (binding for RIO, locality hint for the
// centralized work-stealing scheduler).
func NewEngine(kind EngineKind, p int, mapping stf.Mapping) (Engine, error) {
	switch kind {
	case RIO:
		return core.New(core.Options{Workers: p, Mapping: mapping})
	case CentralizedFIFO:
		return centralized.New(centralized.Options{Workers: p})
	case CentralizedWS:
		return centralized.New(centralized.Options{Workers: p, Scheduler: centralized.WorkStealing, Hint: mapping})
	case CentralizedPrio:
		return centralized.New(centralized.Options{Workers: p, Scheduler: centralized.Priority})
	case Sequential:
		return sequential.New(sequential.Options{}), nil
	}
	return nil, fmt.Errorf("bench: unknown engine kind %d", int(k(kind)))
}

func k(x EngineKind) int { return int(x) }

// Measure runs prog on e warmup+reps times and returns the median wall time
// together with the stats of the median run.
func Measure(e Engine, numData int, prog stf.Program, warmup, reps int) (time.Duration, *trace.Stats, error) {
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
	// Policy names the wait policy under test ("" outside the
	// synchronization ablation, where every engine runs its default).
	Policy string
	// Wall is the median end-to-end time t_p.
	Wall time.Duration
	// PerTask is Wall·p/Tasks − an effective per-task cumulative cost.
	PerTask time.Duration
	// CPU is the process CPU time (user+system) consumed per run, averaged
	// over the measured repetitions; zero when not measured. Spin-heavy
	// policies can match on Wall while burning p× more CPU — this column is
	// what separates them.
	CPU time.Duration
	// Eff is the efficiency decomposition (zero-valued when not
	// applicable to the experiment).
	Eff trace.Efficiency
}
