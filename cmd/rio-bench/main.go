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
//	rio-bench sim7       Figure 7 at the paper's scale (weak scaling up to
//	                     -sim-workers, with and without pruning), simulated
//	                     the same way
//	rio-bench hpl        pivoted-LU (HPL core): the paper's motivating app
//	rio-bench costmodel  fit & validate cost models, eq. (1)/(2)
//	rio-bench sync       the dependency wait on contended readers-writer
//	                     and reduction rounds (computing and sleeping
//	                     bodies) plus the uncontended fig7 replay,
//	                     reporting wall, ns/task and process CPU time
//	rio-bench table1     Table 1: model checking of the STF and Run-In-Order
//	                     models on tiled-LU -sizes (exhaustive, or -sample
//	                     random executions per model); exits non-zero on
//	                     any violation. The paper checks at -workers 2.
//	rio-bench all        fig2..fig8 + costmodel (run sim/sim7/hpl/sync/table1
//	                     separately; they have their own time budgets)
//
// Flags scale the workloads and may come before or after the subcommand;
// defaults are laptop-sized versions of the paper's parameters. -csv or
// -json replaces the text table of rows with machine-readable output
// (-json writes the BENCH_*.json perf-trajectory schema CI archives) and
// leaves out every line that is not a row: `all` then prints no
// cost-model report, and `costmodel` and `table1`, which have no rows,
// reject both flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"rio/internal/bench"
	"rio/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rio-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rio-bench", flag.ContinueOnError)
	var (
		workers    = fs.Int("workers", 4, "thread count p for parallel engines (table1: of the checked models, at most 4)")
		tasks      = fs.Int("tasks", 4096, "task count for fixed-size experiments")
		sizes      = fs.String("task-sizes", "100,1000,10000,100000,1000000", "comma-separated counter task sizes (loop iterations)")
		reps       = fs.Int("reps", 3, "repetitions (median reported)")
		warmup     = fs.Int("warmup", 1, "warmup runs before measuring")
		seed       = fs.Int64("seed", 42, "seed for the random-dependency workload and table1's -sample")
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
		simWorkers = fs.Int("sim-workers", 24, "simulated thread count for the sim subcommand (paper: 24)")
		exp        = fs.Int("experiment", 0, "fig8 only: restrict to one experiment 1..4 (0 = all)")
		luSizes    = fs.String("sizes", "2x2,3x2,3x3", "table1 only: comma-separated LU tile-grid sizes (RxC)")
		samples    = fs.Int("sample", 0, "table1 only: if > 0, sample this many random executions per model (from -seed) instead of exploring every state")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rio-bench [flags] {fig2|fig3|fig4|fig6|fig7|fig8|sim|sim7|hpl|costmodel|sync|table1|all} [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("exactly one subcommand required")
	}
	cmd := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("exactly one subcommand required")
	}
	text := !*jsonOut && !*csvOut

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
		scfg := bench.SimConfig{
			SimWorkers: *simWorkers, FitWorkers: *workers, FitTasks: 4096,
			Tasks: *tasks, TaskSizes: taskSizes, Seed: *seed,
			Warmup: *warmup, Reps: *reps,
		}
		costs, serr := bench.FitCosts(scfg)
		if serr != nil {
			return serr
		}
		simRows, serr := bench.SimFig8(scfg, costs)
		if serr != nil {
			return serr
		}
		if text {
			fmt.Fprintf(stdout, "fitted: rio declare=%v acquire=%v release=%v; centralized dispatch=%v complete=%v; %.3f ns/op\n",
				costs.RIO.DeclareCost, costs.RIO.AcquireCost, costs.RIO.ReleaseCost,
				costs.Centralized.DispatchCost, costs.Centralized.CompleteCost, costs.NsPerOp)
		}
		rows = append(rows, simRows...)
	case "sim7":
		simRows, costs, serr := bench.SimFig7(bench.SimConfig{
			SimWorkers: *simWorkers, FitWorkers: *workers, FitTasks: 4096,
			Warmup: *warmup, Reps: *reps,
		}, *perW, *simWorkers, *f7size)
		if serr != nil {
			return serr
		}
		if text {
			fmt.Fprintf(stdout, "fitted: rio declare=%v acquire=%v release=%v; %.3f ns/op\n",
				costs.RIO.DeclareCost, costs.RIO.AcquireCost, costs.RIO.ReleaseCost, costs.NsPerOp)
		}
		rows = append(rows, simRows...)
	case "hpl":
		err = addRows(bench.HPL(bench.HPLConfig{
			N: *n, PanelWidths: hplWidths(*n, tileSizes), Workers: *workers,
			Warmup: *warmup, Reps: *reps,
		}))
	case "sync":
		r := *readers
		if r == 0 {
			r = *workers
		}
		err = addRows(bench.SyncAblation(bench.SyncConfig{
			Workers: *workers, Rounds: *rounds, Readers: r,
			TasksPerWorker: *perW, TaskSize: *syncSize, BlockDur: *syncBlock,
			Warmup: *warmup, Reps: *reps,
		}))
	case "costmodel":
		if !text {
			fs.Usage()
			return fmt.Errorf("costmodel prints a report, not rows: -json and -csv do not apply")
		}
		rep, cerr := bench.CostModel(ccfg)
		if cerr != nil {
			return cerr
		}
		return bench.RenderCostModel(stdout, rep)
	case "table1":
		if !text {
			fs.Usage()
			return fmt.Errorf("table1 prints a report, not rows: -json and -csv do not apply")
		}
		sz, perr := parseSizes(*luSizes)
		if perr != nil {
			return fmt.Errorf("-sizes: %w", perr)
		}
		t1, terr := spec.Table1(sz, *workers, *samples, *seed)
		if terr != nil {
			return terr
		}
		return writeTable1(stdout, t1, *samples)
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
		if err == nil && text {
			rep, cerr := bench.CostModel(ccfg)
			if cerr != nil {
				return cerr
			}
			defer bench.RenderCostModel(stdout, rep)
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
		return bench.WriteJSON(stdout, rows)
	case *csvOut:
		return bench.WriteCSV(stdout, rows)
	}
	return bench.RenderRows(stdout, rows)
}

// writeTable1 prints Table 1's rows, one line per model, and returns an
// error when any property is violated, so the command exits non-zero.
func writeTable1(w io.Writer, rows []spec.Table1Row, samples int) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size\ttasks\tmodel\tgenerated\tdistinct\tdepth\ttime\tresult")
	ok := true
	for _, r := range rows {
		for _, m := range []struct {
			name string
			res  *spec.Result
			took time.Duration
		}{{"STF", r.STF, r.STFTime}, {"Run-In-Order", r.RIO, r.RIOTime}} {
			verdict := "ok"
			if !m.res.OK() {
				ok = false
				verdict = fmt.Sprintf("FAILED (%d violations)", len(m.res.Violations))
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%s\t%s\n",
				r.Size(), r.Tasks, m.name, m.res.Generated, m.res.Distinct, m.res.Depth, m.took, verdict)
			for _, v := range m.res.Violations {
				fmt.Fprintf(tw, "\t\t! %s\n", v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	switch {
	case !ok:
		return fmt.Errorf("table1: property violations found")
	case samples > 0:
		_, err := fmt.Fprintf(w, "no violations in %d sampled executions per model: data-race freedom, progress, per-step STF readiness\n", samples)
		return err
	}
	_, err := fmt.Fprintln(w, "all properties verified: data-race freedom, termination, RIO refines STF")
	return err
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

// parseSizes parses a comma-separated list of RxC tile-grid sizes
// ("2x2,3x2").
func parseSizes(s string) ([][2]int, error) {
	var out [][2]int
	for _, part := range strings.Split(s, ",") {
		r, c, ok := strings.Cut(strings.TrimSpace(part), "x")
		if !ok {
			return nil, fmt.Errorf("bad size %q (want RxC)", part)
		}
		rows, err := strconv.Atoi(r)
		if err != nil {
			return nil, err
		}
		cols, err := strconv.Atoi(c)
		if err != nil {
			return nil, err
		}
		out = append(out, [2]int{rows, cols})
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
