// Command benchmark is the repository's performance ledger: six named
// workloads, seven end-to-end metrics and the per-layer metrics of a traced
// run, all generated from one seed. See README.md in this directory for the
// definitions, and BENCHMARK.json at the repository root for the contract.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//	benchmark [--seed N] [--seconds S] [--json] run|trace|selfcheck
//
// The first form measures one workload and prints one JSON object as the
// last line of standard output. The second form measures all six with their
// rounds interleaved and prints a table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rio"
)

type metricDef struct{ name, unit string }

// endToEnd lists what a user of the runtime sees, per workload. Every value
// is a percentile over rounds of the per-round statistic (see summarize),
// except setup_s (median over repeated set-ups) and retained_heap_mb (read
// once, after the fifth round).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"tasks_per_s", "tasks/s"},
	{"efficiency", "ratio"},
	{"cpu_s_per_mtask", "s"},
	{"retained_heap_mb", "MB"},
}

// runTable is what `run` prints: the end-to-end metrics, and the denominator
// of efficiency beside it.
var runTable = append(append([]metricDef(nil), endToEnd...), metricDef{"sequential.ns_per_task", "ns"})

const (
	// Both paths are relative to the root of the checkout, where the
	// benchmark is run from.
	outDir   = "benchmark/out"  // trace and result files
	specPath = "BENCHMARK.json" // the contract whose bounds selfcheck applies

	defaultSeed    = 1
	defaultSeconds = 20
	// A workload is set up again until setupBudget is spent (at least
	// sizing.minSetups times, at most sizing.maxSetups): most set-ups take
	// milliseconds, and the median of a handful of those is not steady.
	setupBudget = 500 * time.Millisecond
	seqMinTime  = 2 * time.Millisecond
	// goodSide is the percentile over rounds that a lower-is-better timing
	// is read at; a higher-is-better one is read at 100-goodSide.
	goodSide = 10
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "measure only this workload and print the result as one JSON line")
	seed := fs.Int64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and benchmark/out/trace_<workload>.json")
	jsonOut := fs.Bool("json", false, "also write the results to benchmark/out/result.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mode := fs.Arg(0)
	switch mode {
	case "", "run":
	case "trace":
		*trace = 1
	case "selfcheck":
	default:
		fmt.Fprintf(stderr, "benchmark: unknown command %q (want run, trace or selfcheck)\n", mode)
		return 2
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	nproc := runtime.GOMAXPROCS(0)
	r := &runner{
		cfg:     config{workers: min(nproc, 4), clients: nproc, seed: *seed, size: fullSize()},
		seconds: *seconds, trace: *trace == 1, outDir: outDir,
	}

	if mode == "selfcheck" {
		return selfcheck(r, selected, stderr)
	}
	results, err := r.measure(selected)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defs, table := endToEnd, runTable
	if r.trace {
		defs, table = perLayer, perLayer
	}
	printTable(stderr, results, table)
	if *jsonOut {
		if err := writeResults(outDir, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	for _, res := range results {
		if !res.Correct {
			code = 1
		}
	}
	if *name != "" {
		line, err := json.Marshal(results[0].contract(defs))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// result is one workload's outcome. Metrics holds every end-to-end metric
// and, after a traced run, every per-layer metric as well.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds"`
	Noisy     int                `json:"noisy_rounds"`
	Metrics   map[string]float64 `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract renders the result in the form the benchmark driver reads.
func (r *result) contract(defs []metricDef) any {
	metrics := make(map[string]contractMetric, len(defs))
	for _, d := range defs {
		metrics[d.name] = contractMetric{r.Metrics[d.name], d.unit}
	}
	return struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

func printTable(w io.Writer, results []*result, defs []metricDef) {
	for _, res := range results {
		fmt.Fprintf(w, "%s: %d rounds (%d noisy), fail_ratio %g (%d of %d)\n",
			res.Workload, res.Rounds, res.Noisy, ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
		for _, d := range defs {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, res.Metrics[d.name], d.unit)
		}
		if sum := res.Metrics["server.shadow_sum_us"]; sum > 0 {
			fmt.Fprintf(w, "  shadow pipeline stages sum to %.0f%% of server.submit_us + server.run_us\n",
				100*sum/(res.Metrics["server.submit_us"]+res.Metrics["server.run_us"]))
		}
	}
}

func writeResults(dir string, results []*result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644)
}

// runner measures workloads under the noise protocol: every workload runs
// as rounds of a fixed operation count, rounds are interleaved across the
// workloads being measured, and each metric is a quantile over rounds of
// the per-round statistic. The run length decides only how many rounds fit
// (never fewer than sizing.minRounds).
type runner struct {
	cfg     config
	seconds float64
	trace   bool
	outDir  string
}

// roundStats is what the harness derives from one round.
type roundStats struct {
	traced      bool
	lat         []float64
	p50, p90    float64
	tasksPerS   float64
	efficiency  float64
	cpuPerMtask float64
	seqNsTask   float64
	spinNsIter  float64
	allocBOp    float64
	allocsOp    float64
	gcPauseUsS  float64
}

// state is one workload being measured.
type state struct {
	wl        *workload
	inst      *instance
	seq       rio.Runtime
	setups    []float64
	rounds    []roundStats
	spent     time.Duration
	attempted int
	failed    int
	heapMB    float64 // live heap after the first sizing.minRounds rounds
	tr        *tracer
}

func (r *runner) measure(selected []workload) ([]*result, error) {
	states := make([]*state, len(selected))
	for i := range selected {
		st := &state{wl: &selected[i]}
		if r.trace {
			st.tr = newTracer()
		}
		seq, err := sequentialEngine()
		if err != nil {
			return nil, err
		}
		st.seq = seq
		if err := r.setup(st); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", st.wl.name, err)
		}
		defer st.inst.close()
		states[i] = st
	}

	budget := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		budget /= 2 // the layer probes take the other half
	}
	size := r.cfg.size
	for round := 0; round < size.maxRounds; round++ {
		active := false
		for _, st := range states {
			if round >= size.minRounds && st.spent >= budget {
				continue
			}
			active = true
			r.round(st, round)
			if round == size.minRounds-1 {
				st.heapMB = liveHeapMB()
			}
		}
		if !active {
			break
		}
	}

	results := make([]*result, len(states))
	for i, st := range states {
		layer := map[string]float64{}
		if r.trace {
			layer = r.layerMetrics(st)
		}
		attempted, failed := st.inst.check()
		st.attempted += attempted
		st.failed += failed
		res := r.summarize(st)
		for k, v := range layer {
			if _, measured := res.Metrics[k]; !measured { // summarize owns the per-round ones
				res.Metrics[k] = v
			}
		}
		if r.trace {
			if err := st.tr.write(r.outDir, st.wl.name, r.cfg.seed); err != nil {
				return nil, err
			}
		}
		results[i] = res
	}
	return results, nil
}

// setup builds the workload repeatedly and keeps the last build: setup_s is
// the median, so one slow allocation does not decide it. A set-up covers
// input generation, engine or server construction and warm-up, up to the
// first timed operation.
func (r *runner) setup(st *state) error {
	begin := time.Now()
	size := &r.cfg.size
	for i := 0; i < size.maxSetups && (i < size.minSetups || time.Since(begin) < setupBudget); i++ {
		if st.inst != nil {
			st.inst.close()
		}
		runtime.GC()
		start := time.Now()
		inst, err := st.wl.build(&r.cfg)
		if err != nil {
			return err
		}
		if inst.prepare != nil {
			inst.prepare()
		}
		st.setups = append(st.setups, time.Since(start).Seconds())
		st.inst = inst
	}
	return nil
}

// liveHeapMB is the heap still reachable after two collections (the second
// empties the sync.Pool victim caches net/http fills).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// round runs one fixed-count round of st and the sequential baseline of the
// same flow and kernel beside it, so that efficiency compares two times
// taken within a fraction of a second of each other.
func (r *runner) round(st *state, round int) {
	begin := time.Now()
	inst := st.inst
	rs := roundStats{traced: r.trace && round%2 == 1, spinNsIter: spinNsPerIter()}
	var tr *tracer
	if rs.traced {
		tr = st.tr
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	wall0 := time.Now()
	res := inst.round(tr, round)
	wall := time.Since(wall0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	seqOp := r.baseline(st)
	tasksPerOp := float64(len(inst.flow.Tasks))
	rs.lat = res.lat
	rs.p50, rs.p90 = percentile(res.lat, 50), percentile(res.lat, 90)
	rs.tasksPerS = float64(res.tputTasks) / res.tputWall.Seconds()
	rs.seqNsTask = float64(seqOp.Nanoseconds()) / tasksPerOp
	rs.efficiency = rs.tasksPerS / (float64(r.cfg.workers) * 1e9 / rs.seqNsTask)
	if res.cpu == 0 {
		res.cpu = cpu
	}
	rs.cpuPerMtask = res.cpu.Seconds() / float64(res.tasks) * 1e6
	ops := float64(res.attempted)
	rs.allocBOp = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	rs.allocsOp = float64(m1.Mallocs-m0.Mallocs) / ops
	rs.gcPauseUsS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3 / wall.Seconds()
	st.rounds = append(st.rounds, rs)
	st.attempted += res.attempted
	st.failed += res.failed

	if rs.traced && inst.after != nil {
		inst.after(st.tr)
	}
	if inst.prepare != nil {
		inst.prepare()
	}
	st.spent += time.Since(begin)
}

// baseline is the plain single-threaded run of one operation's flow with
// the workload's kernel: the median of at least seqReps rio.Sequential runs,
// repeated until seqMinTime is spent so that a flow of a few microseconds is
// not timed from three samples.
func (r *runner) baseline(st *state) time.Duration {
	flow, prog := st.inst.flow, replay(st.inst.flow, st.inst.kernel)
	var times []float64
	for begin := time.Now(); len(times) < r.cfg.size.seqReps || time.Since(begin) < seqMinTime; {
		start := time.Now()
		if err := st.seq.Run(flow.NumData, prog); err != nil {
			st.failed++
		}
		times = append(times, float64(time.Since(start)))
	}
	return time.Duration(median(times))
}

// spinNsPerIter times the spin kernel, so a round that ran while the
// machine was slow can be told from one in which the runtime was.
func spinNsPerIter() float64 {
	const iters = 200_000
	var cell uint64
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		spin(&cell, iters)
		best = min(best, float64(time.Since(start).Nanoseconds())/iters)
	}
	return best
}

// summarize reduces the rounds to one value per metric. The machine this
// runs on is slowed from outside for anything from a fraction of a second
// to a minute at a time, the wake-up-heavy workloads most, and interference
// only ever slows a round down. So the end-to-end timings are read off the
// best decile of the rounds (goodSide): far enough in to need a tenth of the
// run undisturbed and no more, far enough from the best round not to be
// decided by one lucky sample. efficiency is a plain median, because a
// disturbed sequential baseline raises it; so are the denominators and
// machine-speed readings.
func (r *runner) summarize(st *state) *result {
	col := func(f func(*roundStats) float64) []float64 {
		out := make([]float64, len(st.rounds))
		for i := range st.rounds {
			out[i] = f(&st.rounds[i])
		}
		return out
	}
	low := func(f func(*roundStats) float64) float64 { return percentile(col(f), goodSide) }
	high := func(f func(*roundStats) float64) float64 { return percentile(col(f), 100-goodSide) }
	spins := col(func(s *roundStats) float64 { return s.spinNsIter })
	spinMed, noisy := median(spins), 0
	for _, s := range spins {
		if math.Abs(s-spinMed) > 0.1*spinMed {
			noisy++
		}
	}
	return &result{
		Workload:  st.wl.name,
		Correct:   st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Rounds:    len(st.rounds),
		Noisy:     noisy,
		Metrics: map[string]float64{
			"setup_s":                  median(st.setups),
			"op_p50_us":                low(func(s *roundStats) float64 { return s.p50 }),
			"op_p90_us":                low(func(s *roundStats) float64 { return s.p90 }),
			"tasks_per_s":              high(func(s *roundStats) float64 { return s.tasksPerS }),
			"efficiency":               median(col(func(s *roundStats) float64 { return s.efficiency })),
			"cpu_s_per_mtask":          low(func(s *roundStats) float64 { return s.cpuPerMtask }),
			"retained_heap_mb":         st.heapMB,
			"sequential.ns_per_task":   median(col(func(s *roundStats) float64 { return s.seqNsTask })),
			"kernels.spin_ns_per_iter": spinMed,
		},
	}
}

// floors are the absolute differences selfcheck lets pass whatever share of
// the value they are: a set-up of a few milliseconds or a heap under a
// megabyte moves by more than its bound from one run to the next.
var floors = map[string]float64{"setup_s": 0.05, "retained_heap_mb": 1}

// selfcheck measures twice back to back and fails if any end-to-end metric
// of any workload differs between the two sets by more than the bound
// BENCHMARK.json gives it (and by more than its floor, if it has one).
func selfcheck(r *runner, selected []workload, w io.Writer) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 1
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(w, "benchmark: %s: %v\n", specPath, err)
		return 1
	}
	var sets [2][]*result
	for i := range sets {
		if sets[i], err = r.measure(selected); err != nil {
			fmt.Fprintln(w, "benchmark:", err)
			return 1
		}
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "spread", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		if !a.Correct || !b.Correct {
			code = 1
		}
		for _, m := range spec.EndToEnd {
			x, y := a.Metrics[m.Name], b.Metrics[m.Name]
			spread := math.Abs(x-y) / x
			verdict := ""
			if spread > m.Bound && math.Abs(x-y) > floors[m.Name] {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", a.Workload, m.Name, x, y, 100*spread, 100*m.Bound, verdict)
		}
	}
	return code
}
