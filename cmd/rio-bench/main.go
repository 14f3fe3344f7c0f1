// Command rio-bench regenerates the figures of the paper's evaluation:
//
//	rio-bench fig2       GEMM execution time vs tile size (centralized & RIO)
//	rio-bench fig3       sequential GEMM kernel efficiency vs tile size
//	rio-bench fig4       GEMM efficiency decomposition vs tile size
//	rio-bench fig6       independent counter tasks: centralized vs RIO
//	rio-bench fig7       weak scaling of task-flow unrolling (RIO, pruned, centralized)
//	rio-bench fig8       efficiency decomposition on the 4 experiments of §5.1
//	rio-bench sim        Figure 8 at the paper's 24-thread scale on an ideal
//	                     machine, with cost constants fitted from the real
//	                     engines (discrete-event simulation)
//	rio-bench hpl        pivoted-LU (HPL core): the paper's motivating app
//	rio-bench costmodel  fit & validate cost models, eq. (1)/(2)
//	rio-bench ablation   design-choice ablations (scheduler, window, spin,
//	                     mapping quality, sparse trees, trace overhead)
//	rio-bench replay     replay-path ablation on the fig7 workload: closure
//	                     replay vs compiled per-worker instruction streams
//	                     (plus guard-off and compile-time-pruned variants)
//	rio-bench sync       synchronization ablation: wait policies (adaptive,
//	                     spin, park) on contended readers-writer and
//	                     reduction rounds plus the uncontended fig7 replay,
//	                     reporting wall, ns/task and process CPU time
//	rio-bench steal      work-stealing ablation: balanced vs skewed mapping ×
//	                     steal off/on on both replay paths, with sleeping
//	                     (I/O-like) task bodies — the hybrid model's headline
//	                     matrix, reporting wall, ns/task and process CPU time
//	rio-bench pipeline   streaming ablation: an unbounded flow of small-task
//	                     windows through the Stream API — native in-order
//	                     session (compiled shapes; closure replay of SharedWorker
//	                     shapes) vs the
//	                     centralized per-window fallback
//	rio-bench all        fig2..fig8 + costmodel (run sim/sim7/hpl/ablation
//	                     separately; they have their own time budgets)
//
// Flags scale the workloads; defaults are laptop-sized versions of the
// paper's parameters. Use -csv or -json to emit machine-readable output
// (-json writes the BENCH_*.json perf-trajectory schema CI archives).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rio/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rio-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rio-bench", flag.ContinueOnError)
	var (
		workers    = fs.Int("workers", 4, "thread count p for parallel engines")
		tasks      = fs.Int("tasks", 4096, "task count for fixed-size experiments")
		sizes      = fs.String("task-sizes", "100,1000,10000,100000,1000000", "comma-separated counter task sizes (loop iterations)")
		reps       = fs.Int("reps", 3, "repetitions (median reported)")
		warmup     = fs.Int("warmup", 1, "warmup runs before measuring")
		seed       = fs.Int64("seed", 42, "seed for the random-dependency workload")
		n          = fs.Int("n", 256, "matrix dimension for the GEMM figures")
		tiles      = fs.String("tile-sizes", "8,16,32,64,128,256", "comma-separated GEMM tile sizes (must divide n)")
		maxW       = fs.Int("max-workers", 6, "maximum worker count for fig7")
		perW       = fs.Int("tasks-per-worker", 8192, "fig7 tasks per worker (paper: 32768)")
		f7size     = fs.Uint64("fig7-task-size", 1024, "fig7 fixed task size")
		csvOut     = fs.Bool("csv", false, "emit CSV instead of a text table")
		jsonOut    = fs.Bool("json", false, "emit the BENCH_*.json perf-trajectory array instead of a text table")
		rounds     = fs.Int("sync-rounds", 200, "sync only: writer/readers rounds of the contended workloads")
		readers    = fs.Int("sync-readers", 0, "sync only: readers per round (0 = workers)")
		syncSize   = fs.Uint64("sync-task-size", 2000, "sync only: counter task size; nonzero makes the contended waits outlast the spin phase")
		syncBlock  = fs.Duration("sync-block", 200*time.Microsecond, "sync only: sleeping task body of the blocking workload (0 disables it)")
		syncSpin   = fs.Int("sync-spin", 0, "sync only: SpinLimit override (0 = engine default)")
		syncYield  = fs.Int("sync-yield", 0, "sync only: YieldLimit override (0 = engine default); small values force contended waits into the policies' slow phases")
		simWorkers = fs.Int("sim-workers", 24, "simulated thread count for the sim subcommand (paper: 24)")
		windows    = fs.Int("windows", 200, "pipeline only: windows per measured stream")
		winSizes   = fs.String("window-sizes", "64,256,1024", "pipeline only: comma-separated tasks per window")
		chainLen   = fs.Int("chain-len", 8, "pipeline only: dependency-chain depth within each window")
		pipeSizes  = fs.String("pipeline-task-sizes", "0,100,1000", "pipeline only: counter task sizes (small: the streaming overhead regime)")
		stealTasks = fs.Int("steal-tasks", 256, "steal only: independent task count n")
		stealDur   = fs.Duration("steal-dur", 200*time.Microsecond, "steal only: sleeping task body duration")
		exp        = fs.Int("experiment", 0, "fig8 only: restrict to one experiment 1..4 (0 = all)")
		chromeOut  = fs.String("chrome", "", "replay only: also write a Chrome trace of one traced run to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rio-bench [flags] {fig2|fig3|fig4|fig6|fig7|fig8|sim|sim7|hpl|costmodel|ablation|replay|sync|steal|pipeline|all}")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one subcommand required")
	}
	cmd := fs.Arg(0)

	taskSizes, err := parseUints(*sizes)
	if err != nil {
		return fmt.Errorf("-task-sizes: %w", err)
	}
	tileSizes, err := parseInts(*tiles)
	if err != nil {
		return fmt.Errorf("-tile-sizes: %w", err)
	}
	ccfg := bench.CounterConfig{
		Workers: *workers, Tasks: *tasks, TaskSizes: taskSizes,
		Warmup: *warmup, Reps: *reps, Seed: *seed,
	}
	gcfg := bench.GEMMConfig{
		N: *n, TileSizes: tileSizes, Workers: *workers,
		Warmup: *warmup, Reps: *reps,
	}
	f7cfg := bench.Fig7Config{
		MaxWorkers: *maxW, TasksPerWorker: *perW, TaskSize: *f7size,
		Warmup: *warmup, Reps: *reps, WithPruned: true, WithCentralized: true,
	}

	var rows []bench.Row
	addRows := func(r []bench.Row, err error) error {
		if err != nil {
			return err
		}
		rows = append(rows, r...)
		return nil
	}

	switch cmd {
	case "fig2":
		err = addRows(bench.Fig2(gcfg))
	case "fig3":
		err = addRows(bench.Fig3(gcfg))
	case "fig4":
		err = addRows(bench.Fig4(gcfg))
	case "fig6":
		err = addRows(bench.Fig6(ccfg))
	case "fig7":
		err = addRows(bench.Fig7(f7cfg))
	case "fig8":
		if *exp != 0 {
			err = addRows(bench.Fig8(bench.Fig8Experiment(*exp), ccfg))
		} else {
			err = addRows(bench.Fig8All(ccfg))
		}
	case "sim":
		simRows, costs, serr := bench.SimFig8(bench.SimConfig{
			SimWorkers: *simWorkers, FitWorkers: *workers, FitTasks: 4096,
			Tasks: *tasks, TaskSizes: taskSizes, Seed: *seed,
			Warmup: *warmup, Reps: *reps,
		})
		if serr != nil {
			return serr
		}
		fmt.Printf("fitted: rio declare=%v acquire=%v release=%v; centralized dispatch=%v complete=%v; %.3f ns/op\n",
			costs.RIO.DeclareCost, costs.RIO.AcquireCost, costs.RIO.ReleaseCost,
			costs.Centralized.DispatchCost, costs.Centralized.CompleteCost, costs.NsPerOp)
		rows = append(rows, simRows...)
	case "sim7":
		simRows, costs, serr := bench.SimFig7(bench.SimConfig{
			SimWorkers: *simWorkers, FitWorkers: *workers, FitTasks: 4096,
			Warmup: *warmup, Reps: *reps,
		}, *perW, *simWorkers, *f7size)
		if serr != nil {
			return serr
		}
		fmt.Printf("fitted: rio declare=%v acquire=%v release=%v; %.3f ns/op\n",
			costs.RIO.DeclareCost, costs.RIO.AcquireCost, costs.RIO.ReleaseCost, costs.NsPerOp)
		rows = append(rows, simRows...)
	case "hpl":
		err = addRows(bench.HPL(bench.HPLConfig{
			N: *n, PanelWidths: hplWidths(*n, tileSizes), Workers: *workers,
			Warmup: *warmup, Reps: *reps,
		}))
	case "ablation":
		err = addRows(bench.Ablations(bench.AblationConfig{
			Workers: *workers, Warmup: *warmup, Reps: *reps,
			TaskSize: 200, Tasks: *tasks,
		}))
	case "replay":
		rcfg := bench.ReplayConfig{
			Workers: *workers, TasksPerWorker: *perW, TaskSize: *f7size,
			Warmup: *warmup, Reps: *reps,
		}
		err = addRows(bench.ReplayAblation(rcfg))
		if err == nil && *chromeOut != "" {
			var f *os.File
			if f, err = os.Create(*chromeOut); err == nil {
				err = bench.WriteReplayChromeTrace(f, rcfg)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
	case "sync":
		r := *readers
		if r == 0 {
			r = *workers
		}
		err = addRows(bench.SyncAblation(bench.SyncConfig{
			Workers: *workers, Rounds: *rounds, Readers: r,
			TasksPerWorker: *perW, TaskSize: *syncSize, BlockDur: *syncBlock,
			SpinLimit: *syncSpin, YieldLimit: *syncYield,
			Warmup: *warmup, Reps: *reps,
		}))
	case "steal":
		err = addRows(bench.StealAblation(bench.StealConfig{
			Workers: *workers, Tasks: *stealTasks, TaskDur: *stealDur,
			Warmup: *warmup, Reps: *reps,
		}))
	case "pipeline":
		var wsz []int
		if wsz, err = parseInts(*winSizes); err != nil {
			return fmt.Errorf("-window-sizes: %w", err)
		}
		var psz []uint64
		if psz, err = parseUints(*pipeSizes); err != nil {
			return fmt.Errorf("-pipeline-task-sizes: %w", err)
		}
		err = addRows(bench.PipelineAblation(bench.PipelineConfig{
			Workers: *workers, Windows: *windows, WindowSizes: wsz,
			ChainLen: *chainLen, TaskSizes: psz,
			Warmup: *warmup, Reps: *reps,
		}))
	case "costmodel":
		rep, cerr := bench.CostModel(ccfg)
		if cerr != nil {
			return cerr
		}
		return bench.RenderCostModel(os.Stdout, rep)
	case "all":
		for _, f := range []func() ([]bench.Row, error){
			func() ([]bench.Row, error) { return bench.Fig2(gcfg) },
			func() ([]bench.Row, error) { return bench.Fig3(gcfg) },
			func() ([]bench.Row, error) { return bench.Fig4(gcfg) },
			func() ([]bench.Row, error) { return bench.Fig6(ccfg) },
			func() ([]bench.Row, error) { return bench.Fig7(f7cfg) },
			func() ([]bench.Row, error) { return bench.Fig8All(ccfg) },
		} {
			if err = addRows(f()); err != nil {
				break
			}
		}
		if err == nil {
			rep, cerr := bench.CostModel(ccfg)
			if cerr != nil {
				return cerr
			}
			defer bench.RenderCostModel(os.Stdout, rep)
		}
	default:
		fs.Usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		return err
	}
	switch {
	case *jsonOut:
		return bench.WriteJSON(os.Stdout, rows)
	case *csvOut:
		return bench.WriteCSV(os.Stdout, rows)
	}
	return bench.RenderRows(os.Stdout, rows)
}

// hplWidths reuses the -tile-sizes flag as panel widths, dropping values
// that do not divide n (a full-width panel degenerates to unblocked LU and
// is kept).
func hplWidths(n int, tiles []int) []int {
	var out []int
	for _, b := range tiles {
		if b >= 1 && b <= n && n%b == 0 {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = []int{n}
	}
	return out
}

func parseUints(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
