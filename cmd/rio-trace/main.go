// Command rio-trace runs one workload under one engine with per-task span
// recording and prints an ASCII Gantt timeline, the per-kernel duration
// breakdown, and the task graph's critical-path bound next to the achieved
// time — the analysis view behind the paper's efficiency-decomposition
// numbers. (Recording cost +43% per task at 200-op granularity — see
// EXPERIMENTS.md, "Design-choice ablations" — which is why the headline
// experiments use aggregate accounting instead, as the paper does.)
//
//	rio-trace -workload lu -size 6 -workers 4 -engine rio -task-size 5000
//	rio-trace -workload wavefront -size 8 -engine centralized
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/server/ingest"
	"rio/internal/stf"
	"rio/internal/trace"
)

// workloadSeed seeds the random workload: rio-vet's default, so both tools
// build the same flow from the same -workload and -size.
const workloadSeed = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rio-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rio-trace", flag.ContinueOnError)
	workload := fs.String("workload", "lu", "independent | random | gemm | lu | cholesky | wavefront | tree | forkjoin")
	size := fs.Int("size", 6, "workload size")
	workers := fs.Int("workers", 4, "worker count")
	engine := fs.String("engine", "rio", "rio | centralized | sequential")
	taskSize := fs.Uint64("task-size", 5000, "synthetic task size (counter iterations)")
	width := fs.Int("width", 100, "gantt width in columns")
	chrome := fs.String("chrome", "", "write a Chrome trace (counter rows + dependency flow arrows) to this file; \"-\" for stdout")
	steal := fs.Bool("steal", false, "enable work stealing (rio engine only); stolen tasks are drawn in the thief's lane with a hand-off arrow")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := ingest.Workload(*workload, *size, workloadSeed)
	if err != nil {
		return err
	}
	mapping := sched.OwnerComputes(g, sched.NewGrid2D(*workers))
	model, err := parseModel(*engine)
	if err != nil {
		return err
	}
	var rt rio.Runtime
	var exec func(stf.Kernel) error
	if *steal {
		if model != rio.InOrder {
			return fmt.Errorf("-steal applies to the rio engine only (got %q)", *engine)
		}
		// An armed engine lowers the graph canonically (any task may end
		// up on a thief) and reads steal readiness from its tables.
		e, err := rio.NewEngine(rio.Options{
			Workers: *workers,
			Mapping: mapping,
			Steal:   &rio.StealPolicy{Victims: rio.RankVictims(g, mapping, *workers)},
		})
		if err != nil {
			return err
		}
		rt, exec = e, func(k stf.Kernel) error { return e.RunGraph(g, k) }
	} else {
		if rt, err = rio.New(rio.Options{Model: model, Workers: *workers, Mapping: mapping}); err != nil {
			return err
		}
		exec = func(k stf.Kernel) error { return rt.Run(g.NumData, rio.Replay(g, k)) }
	}

	rec := trace.NewRecorder(*workers)
	cells := kernels.NewCells(*workers)
	base := graphs.CounterKernel(cells, *taskSize)
	kern := rec.Instrument(base)
	if *steal {
		// Owner-aware spans: stolen tasks get the stolen_from annotation
		// and a hand-off arrow in the Chrome export.
		kern = rec.InstrumentOwned(base, mapping)
	}
	t0 := time.Now()
	if err := exec(kern); err != nil {
		return err
	}
	wall := time.Since(t0)

	fmt.Fprintf(out, "%s on %s: %d tasks, %d workers, wall %v\n\n",
		rt.Name(), g.Name, rec.Count(), *workers, wall.Round(time.Microsecond))
	if err := rec.Gantt(out, *width); err != nil {
		return err
	}

	fmt.Fprintln(out, "\nper-kernel breakdown:")
	stats := rec.KernelStats()
	kinds := make([]int, 0, len(stats))
	for k := range stats {
		kinds = append(kinds, k)
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		s := stats[k]
		fmt.Fprintf(out, "  kernel %-3d ×%-6d mean %-10v max %-10v total %v\n",
			k, s.Count, s.Mean().Round(time.Nanosecond), s.Max.Round(time.Nanosecond), s.Total.Round(time.Microsecond))
	}

	durs := rec.TaskDurations(len(g.Tasks))
	critical, work := stf.CriticalPath(g, func(id stf.TaskID) time.Duration { return durs[id] })
	fmt.Fprintf(out, "\nwork %v, critical path %v", work.Round(time.Microsecond), critical.Round(time.Microsecond))
	if critical > 0 {
		fmt.Fprintf(out, " → graph parallelism %.2f; makespan vs bound: %.2fx\n",
			float64(work)/float64(critical), float64(wall)/float64(critical))
	} else {
		fmt.Fprintln(out)
	}

	if *chrome != "" {
		if err := writeChrome(*chrome, rec, g, out); err != nil {
			return err
		}
	}
	return nil
}

// writeChrome exports the recorded run as a graph-aware Chrome trace
// (task slices, ready/executed counter rows, dependency flow arrows) to
// path, or to out when path is "-".
func writeChrome(path string, rec *trace.Recorder, g *stf.Graph, out io.Writer) error {
	if path == "-" {
		return rec.WriteChromeTraceGraph(out, g, nil)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTraceGraph(f, g, nil); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nchrome trace written to %s (load in chrome://tracing or Perfetto)\n", path)
	return nil
}

func parseModel(s string) (rio.Model, error) {
	switch s {
	case "rio":
		return rio.InOrder, nil
	case "centralized":
		return rio.Centralized, nil
	case "sequential":
		return rio.Sequential, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}
