package bench_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rio"
	"rio/internal/bench"
	"rio/internal/graphs"
	"rio/internal/stf"
	"rio/internal/trace"
)

func quickCfg() bench.CounterConfig {
	return bench.CounterConfig{
		Workers: 3, Tasks: 200, TaskSizes: []uint64{50, 500},
		Warmup: 0, Reps: 1, Seed: 1,
	}
}

func TestMeasureMedianAndStats(t *testing.T) {
	e, err := rio.New(rio.Options{Model: rio.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	g := graphs.Independent(50)
	prog := stf.Replay(g, func(*stf.Task, stf.WorkerID) {})
	wall, st, err := bench.Measure(e, 0, prog, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wall <= 0 {
		t.Errorf("wall = %v", wall)
	}
	if st.Executed() != 50 {
		t.Errorf("executed = %d", st.Executed())
	}
}

func TestFig6ProducesBothEngines(t *testing.T) {
	rows, err := bench.Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 engines × 2 sizes
		t.Fatalf("row count = %d, want 4", len(rows))
	}
	engines := map[string]bool{}
	for _, r := range rows {
		engines[r.Engine] = true
		if r.Wall <= 0 || r.Tasks != 200 {
			t.Errorf("bad row %+v", r)
		}
	}
	if !engines["rio"] || !engines["centralized-fifo"] {
		t.Errorf("engines covered: %v", engines)
	}
}

func TestFig6RejectsBadConfig(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 1
	if _, err := bench.Fig6(cfg); err == nil {
		t.Error("1 worker accepted for engine comparison")
	}
	cfg = quickCfg()
	cfg.TaskSizes = nil
	if _, err := bench.Fig6(cfg); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestFig7WeakScalingRows(t *testing.T) {
	rows, err := bench.Fig7(bench.Fig7Config{
		MaxWorkers: 3, TasksPerWorker: 100, TaskSize: 50,
		Reps: 1, WithPruned: true, WithCentralized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// rio: p=1..3; rio-pruned: p=1..3; centralized: p=2..3 → 8 rows.
	if len(rows) != 8 {
		t.Fatalf("row count = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Tasks != int64(100*r.Workers) {
			t.Errorf("%s p=%d executed %d tasks, want %d", r.Engine, r.Workers, r.Tasks, 100*r.Workers)
		}
	}
}

func TestFig7BadConfig(t *testing.T) {
	if _, err := bench.Fig7(bench.Fig7Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestFig8AllExperiments(t *testing.T) {
	cfg := quickCfg()
	cfg.Tasks = 64
	rows, err := bench.Fig8All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 experiments × 2 engines × 2 sizes.
	if len(rows) != 16 {
		t.Fatalf("row count = %d, want 16", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Experiment] = true
		if r.Eff.Pipelining <= 0 || r.Eff.Pipelining > 1.01 {
			t.Errorf("%s %s: e_p = %v out of (0,1]", r.Experiment, r.Engine, r.Eff.Pipelining)
		}
		if r.Eff.Runtime <= 0 || r.Eff.Runtime > 1.01 {
			t.Errorf("%s %s: e_r = %v out of (0,1]", r.Experiment, r.Engine, r.Eff.Runtime)
		}
	}
	for _, exp := range []string{"fig8-exp1-independent", "fig8-exp2-random", "fig8-exp3-gemm", "fig8-exp4-lu"} {
		if !seen[exp] {
			t.Errorf("experiment %s missing", exp)
		}
	}
}

func TestCostModelReport(t *testing.T) {
	cfg := quickCfg()
	rep, err := bench.CostModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrCentralized <= 0 || rep.TrRIO <= 0 {
		t.Errorf("non-positive fitted costs: %v %v", rep.TrCentralized, rep.TrRIO)
	}
	if rep.NsPerOp <= 0 {
		t.Errorf("NsPerOp = %v", rep.NsPerOp)
	}
	if len(rep.Rows) != 2*len(cfg.TaskSizes) {
		t.Errorf("rows = %d", len(rep.Rows))
	}
	var buf bytes.Buffer
	if err := bench.RenderCostModel(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crossover") {
		t.Error("report missing crossover estimate")
	}
}

func TestFig3SequentialEfficiency(t *testing.T) {
	rows, err := bench.Fig3(bench.GEMMConfig{
		N: 32, TileSizes: []int{8, 16, 32}, Workers: 2, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	bestSeen := false
	for _, r := range rows {
		if r.Eff.Granularity <= 0 || r.Eff.Granularity > 1.0001 {
			t.Errorf("e_g = %v out of (0,1]", r.Eff.Granularity)
		}
		if r.Eff.Granularity > 0.9999 {
			bestSeen = true
		}
	}
	if !bestSeen {
		t.Error("no tile size achieved e_g = 1 (the best must, by definition)")
	}
}

func TestFig2And4(t *testing.T) {
	cfg := bench.GEMMConfig{N: 32, TileSizes: []int{8, 32}, Workers: 3, Reps: 1}
	rows, err := bench.Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 engines × 2 tile sizes
		t.Fatalf("fig2 rows = %d", len(rows))
	}
	rows, err = bench.Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Eff.Parallel <= 0 {
			t.Errorf("fig4 %s b=%d: e = %v", r.Engine, r.TaskSize, r.Eff.Parallel)
		}
	}
}

func TestGEMMConfigValidation(t *testing.T) {
	bad := []bench.GEMMConfig{
		{N: 32, TileSizes: []int{7}, Workers: 2, Reps: 1}, // 7 does not divide 32
		{N: 0, TileSizes: []int{8}, Workers: 2, Reps: 1},  // empty matrix
		{N: 32, TileSizes: []int{8}, Workers: 1, Reps: 1}, // too few workers
		{N: 32, TileSizes: nil, Workers: 2, Reps: 1},      // empty sweep
	}
	for i, cfg := range bad {
		if _, err := bench.Fig2(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestRenderRows(t *testing.T) {
	rows := []bench.Row{
		{Experiment: "fig6", Workload: "independent", Engine: "rio", Workers: 4,
			TaskSize: 100, Tasks: 10, Wall: 123 * time.Microsecond, PerTask: time.Microsecond},
	}
	var buf bytes.Buffer
	if err := bench.RenderRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig6", "rio", "independent"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "e_p") {
		t.Error("efficiency columns shown for rows without decomposition")
	}
}

func TestRenderRowsWithEfficiency(t *testing.T) {
	rows := []bench.Row{{
		Experiment: "fig8-exp1", Engine: "rio", Workers: 2, Wall: time.Millisecond,
		Eff: rioEff(),
	}}
	var buf bytes.Buffer
	if err := bench.RenderRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "e_p") {
		t.Error("efficiency columns missing")
	}
}

func TestWriteCSV(t *testing.T) {
	rows := []bench.Row{{
		Experiment: "fig6", Workload: "w", Engine: "rio", Workers: 2,
		TaskSize: 10, Tasks: 5, Wall: time.Millisecond, Eff: rioEff(),
	}}
	var buf bytes.Buffer
	if err := bench.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,") {
		t.Errorf("header = %q", lines[0])
	}
	if fields := strings.Split(lines[1], ","); len(fields) != 14 {
		t.Errorf("field count = %d", len(fields))
	}
}

func TestWriteJSONTrajectorySchema(t *testing.T) {
	rows := []bench.Row{
		{Experiment: "sync", Workload: "readers-writer", Engine: "rio",
			Workers: 4, Tasks: 100, Wall: time.Millisecond,
			PerTask: 40 * time.Microsecond, CPU: 3 * time.Millisecond},
		{Experiment: "fig6", Workload: "independent", Engine: "rio",
			Workers: 2, Tasks: 10, Wall: time.Microsecond, PerTask: 200 * time.Nanosecond},
	}
	var buf bytes.Buffer
	if err := bench.WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("records = %d, want 2", len(got))
	}
	if name := got[0]["name"]; name != "sync/readers-writer/rio" {
		t.Errorf("name = %v", name)
	}
	if ns := got[0]["ns_per_task"]; ns != float64(40000) {
		t.Errorf("ns_per_task = %v", ns)
	}
	if cpu := got[0]["cpu_ns"]; cpu != float64(3_000_000) {
		t.Errorf("cpu_ns = %v", cpu)
	}
	if name := got[1]["name"]; name != "fig6/independent/rio" {
		t.Errorf("name = %v", name)
	}
	// Rows without a CPU measurement omit it.
	if _, ok := got[1]["cpu_ns"]; ok {
		t.Error("zero cpu_ns serialized")
	}
}

// The sync measurement must produce one row per workload.
func TestSyncAblationRows(t *testing.T) {
	rows, err := bench.SyncAblation(bench.SyncConfig{
		Workers: 2, Rounds: 6, Readers: 3, TasksPerWorker: 50, Reps: 1,
		BlockDur: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range rows {
		if r.Wall <= 0 || r.Tasks <= 0 {
			t.Errorf("bad row %+v", r)
		}
		seen[r.Workload]++
	}
	workloads := []string{"readers-writer", "reduce-rounds", "readers-writer+block", "independent"}
	if len(rows) != len(workloads) {
		t.Fatalf("rows = %d, want %d", len(rows), len(workloads))
	}
	for _, w := range workloads {
		if seen[w] != 1 {
			t.Errorf("%d rows for workload %s, want 1", seen[w], w)
		}
	}
}

func TestSyncAblationRejectsBadConfig(t *testing.T) {
	if _, err := bench.SyncAblation(bench.SyncConfig{Workers: 1, Rounds: 1, Readers: 1, TasksPerWorker: 1}); err == nil {
		t.Error("single-worker sync ablation accepted")
	}
}

func rioEff() trace.Efficiency {
	return trace.Efficiency{Granularity: 1, Locality: 1, Pipelining: 0.9, Runtime: 0.8, Parallel: 0.72}
}
