package bench

// Streaming-pipeline ablation (the `rio-bench pipeline` subcommand): an
// unbounded task flow submitted window by window through the Stream API,
// RIO's native session against the centralized baseline's per-window
// fallback, at deliberately small task sizes.
//
// This is §2's eq. (1) vs eq. (2) restaged for service workloads: the
// centralized engine pays its master a dispatch per task of every window
// (eq. 1's n·t_s term, plus a full unroll and worker fan-out per window),
// while the in-order session pays a handful of private-memory writes per
// task and one launch and join of its workers per window — the paper
// predicts RIO wins decisively once tasks are small, and the streaming
// layers (windowed recording, state recycled between windows, per-shape
// compiled replay) must
// preserve that edge for flows that never end. The rio-shared variant maps
// the last task of every chain to SharedWorker, which sends its windows down
// the closure window path: it isolates what the per-shape compiled cache
// buys over closure replay of every window.

import (
	"fmt"
	"sort"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/kernels"
)

// PipelineConfig parameterizes the streaming ablation.
type PipelineConfig struct {
	// Workers is the thread count p for both engines.
	Workers int
	// Windows is the number of windows per measured run.
	Windows int
	// WindowSizes sweeps the tasks-per-window axis (each window carries
	// this many tasks, split into ChainLen-deep dependency chains).
	WindowSizes []int
	// ChainLen is the depth of each within-window dependency chain; the
	// window holds WindowSize/ChainLen independent chains, each pinned to
	// one data object and (under the chain mapping) one worker.
	ChainLen int
	// TaskSizes sweeps the counter kernel's loop count. Keep small: the
	// ablation targets the fine-grained regime where runtime overhead
	// dominates.
	TaskSizes []uint64
	// Warmup, Reps as elsewhere (median wall over Reps).
	Warmup, Reps int
}

func (c PipelineConfig) check() error {
	if c.Workers < 1 || c.Windows < 1 || len(c.WindowSizes) == 0 || c.ChainLen < 1 {
		return fmt.Errorf("bench: bad pipeline config %+v", c)
	}
	for _, ws := range c.WindowSizes {
		if ws < c.ChainLen {
			return fmt.Errorf("bench: window size %d below chain length %d", ws, c.ChainLen)
		}
	}
	return nil
}

// pipelineVariants are the engines the ablation compares.
var pipelineVariants = []struct {
	engine string
	model  rio.Model
	shared bool // last task of every chain is SharedWorker
}{
	{"rio", rio.InOrder, false},                  // native session, per-shape compiled replay
	{"rio-shared", rio.InOrder, true},            // native session, closure replay of each window
	{"centralized-fifo", rio.Centralized, false}, // per-window fallback: unroll + dispatch every window
}

// PipelineAblation measures streaming throughput (wall, ns/task, process
// CPU) for every engine variant over the window-size × task-size sweep.
func PipelineAblation(cfg PipelineConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	p := cfg.Workers
	cells := kernels.NewCells(p)
	var rows []Row
	for _, winSize := range cfg.WindowSizes {
		chains := winSize / cfg.ChainLen
		perWindow := chains * cfg.ChainLen
		// Chain mapping: window-local task c·L+l belongs to chain c, and
		// every chain lives on one worker — the natural sharding of a
		// periodic pipeline, so cross-worker waits measure the protocol,
		// not an artificial ping-pong.
		chainLen := cfg.ChainLen
		mapping := rio.Mapping(func(id rio.TaskID) rio.WorkerID {
			return rio.WorkerID(int(id) / chainLen % p)
		})
		for _, size := range cfg.TaskSizes {
			kern := graphs.CounterKernel(cells, size)
			for _, v := range pipelineVariants {
				m := mapping
				if v.shared {
					m = rio.PartialMapping(mapping, func(id rio.TaskID) bool { return int(id)%chainLen == chainLen-1 })
				}
				run := func() (time.Duration, error) {
					rt, err := rio.New(rio.Options{
						Model: v.model, Workers: p, Mapping: m,
						NoAccounting: true,
					})
					if err != nil {
						return 0, err
					}
					s, err := rio.OpenStream(rt, chains, rio.StreamOptions{
						Kernel:    kern,
						MaxWindow: -1, // explicit Flush marks the window
					})
					if err != nil {
						return 0, err
					}
					start := time.Now()
					for w := 0; w < cfg.Windows; w++ {
						for c := 0; c < chains; c++ {
							for l := 0; l < cfg.ChainLen; l++ {
								s.Task(0, c, l, 0, rio.RW(rio.DataID(c)))
							}
						}
						if err := s.Flush(); err != nil {
							return 0, err
						}
					}
					if err := s.Close(); err != nil {
						return 0, err
					}
					return time.Since(start), nil
				}
				wall, cpu, err := measurePipeline(run, cfg.Warmup, cfg.Reps)
				if err != nil {
					return nil, fmt.Errorf("pipeline/w%d/%s/size%d: %w", winSize, v.engine, size, err)
				}
				tasks := int64(cfg.Windows) * int64(perWindow)
				rows = append(rows, Row{
					Experiment: "pipeline",
					Workload:   fmt.Sprintf("stream-w%d", winSize),
					Engine:     v.engine,
					Workers:    p,
					TaskSize:   size,
					Tasks:      tasks,
					Wall:       wall,
					PerTask:    perTask(wall, p, tasks),
					CPU:        cpu,
				})
			}
		}
	}
	return rows, nil
}

// measurePipeline runs warmup + reps whole-stream executions, reporting
// the median wall time and the mean process-CPU per run. The stream's own
// clock (submission + execution, Close included) is the measurement: a
// streaming workload has no single engine Stats to read.
func measurePipeline(run func() (time.Duration, error), warmup, reps int) (time.Duration, time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < warmup; i++ {
		if _, err := run(); err != nil {
			return 0, 0, err
		}
	}
	walls := make([]time.Duration, 0, reps)
	cpu0 := cpuTime()
	for i := 0; i < reps; i++ {
		w, err := run()
		if err != nil {
			return 0, 0, err
		}
		walls = append(walls, w)
	}
	cpu := (cpuTime() - cpu0) / time.Duration(reps)
	sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
	return walls[len(walls)/2], cpu, nil
}
