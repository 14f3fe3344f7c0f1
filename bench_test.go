// Benchmarks regenerating every table and figure of the paper's evaluation
// as testing.B targets. Each benchmark iteration executes one full run of
// the corresponding workload; custom metrics expose the paper's quantities
// (ns/task, efficiency factors, model-checking state counts).
//
// The workload sizes are laptop-scale; cmd/rio-bench exposes the same
// experiments with tunable sizes and renders the full sweeps.
package rio_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"rio"
	"rio/internal/graphs"
	"rio/internal/hpl"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/spec"
	"rio/internal/stf"
)

const benchWorkers = 4

func newRuntime(b *testing.B, model rio.Model, workers int, m rio.Mapping) rio.Runtime {
	b.Helper()
	rt, err := rio.New(rio.Options{Model: model, Workers: workers, Mapping: m})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// runCounter benchmarks one engine executing g with the synthetic counter
// kernel at the given task size, reporting ns/task.
func runCounter(b *testing.B, model rio.Model, g *rio.Graph, m rio.Mapping, size uint64) {
	rt := newRuntime(b, model, benchWorkers, m)
	cells := kernels.NewCells(benchWorkers)
	prog := rio.Replay(g, graphs.CounterKernel(cells, size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(g.NumData, prog); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perTask := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(g.Tasks))
	b.ReportMetric(perTask, "ns/task")
}

// BenchmarkFig6 — Figure 6: fixed number of independent counter tasks,
// centralized vs RIO, across task sizes. The centralized engine's ns/task
// floors at its per-task management cost; RIO's keeps shrinking.
func BenchmarkFig6(b *testing.B) {
	g := graphs.Independent(2048)
	for _, size := range []uint64{100, 1000, 10000} {
		for _, model := range []rio.Model{rio.InOrder, rio.Centralized} {
			b.Run(fmt.Sprintf("size=%d/%s", size, model), func(b *testing.B) {
				runCounter(b, model, g, rio.CyclicMapping(benchWorkers), size)
			})
		}
	}
}

// BenchmarkFig7 — Figure 7: weak scaling of the task-flow unrolling. Tasks
// per worker fixed; the RIO total grows with p (every worker unrolls
// everything) while the pruned variant stays flat.
func BenchmarkFig7(b *testing.B) {
	const perWorker = 2048
	const size = 256
	for _, p := range []int{1, 2, 4, 6} {
		g := graphs.Independent(perWorker * p)
		m := sched.Cyclic(p)
		cells := kernels.NewCells(p)
		kern := graphs.CounterKernel(cells, size)
		variants := []struct {
			name string
			prog rio.Program
		}{
			{"full", rio.Replay(g, kern)},
			{"pruned", sched.PrunedReplay(g, kern, sched.Relevant(g, m, p))},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("p=%d/%s", p, v.name), func(b *testing.B) {
				rt := newRuntime(b, rio.InOrder, p, m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rt.Run(g.NumData, v.prog); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// fig8Case builds one of the four §5.1 experiments at benchmark scale.
func fig8Case(b *testing.B, exp int) (*rio.Graph, rio.Mapping) {
	b.Helper()
	switch exp {
	case 1:
		return graphs.Independent(2048), sched.Cyclic(benchWorkers)
	case 2:
		return graphs.RandomDeps(2048, 128, 2, 1, 42), sched.Cyclic(benchWorkers)
	case 3:
		g := graphs.GEMM(12) // 1728 tasks
		return g, sched.OwnerComputes(g, sched.NewGrid2D(benchWorkers))
	case 4:
		g := graphs.LU(14) // 1911 tasks
		return g, sched.OwnerComputes(g, sched.NewGrid2D(benchWorkers))
	}
	b.Fatalf("unknown experiment %d", exp)
	return nil, nil
}

// BenchmarkFig8 — Figure 8: the four experiment task graphs under both
// engines at two granularities; the reported e_p and e_r reproduce the
// figure's efficiency decomposition (e_g = e_l = 1 by construction of the
// synthetic kernel).
func BenchmarkFig8(b *testing.B) {
	for exp := 1; exp <= 4; exp++ {
		g, m := fig8Case(b, exp)
		for _, size := range []uint64{200, 5000} {
			for _, model := range []rio.Model{rio.InOrder, rio.Centralized} {
				name := fmt.Sprintf("exp%d/size=%d/%s", exp, size, model)
				b.Run(name, func(b *testing.B) {
					rt := newRuntime(b, model, benchWorkers, m)
					cells := kernels.NewCells(benchWorkers)
					prog := rio.Replay(g, graphs.CounterKernel(cells, size))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := rt.Run(g.NumData, prog); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					st := rt.Stats()
					task, idle, _ := st.Cumulative()
					total := st.TotalCumulative()
					if task+idle > 0 && total > 0 {
						b.ReportMetric(float64(task)/float64(task+idle), "e_p")
						b.ReportMetric(float64(task+idle)/float64(total), "e_r")
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
				})
			}
		}
	}
}

// BenchmarkFig3 — Figure 3: the sequential tile-kernel efficiency origin of
// the granularity effect — pure kernel time per tile size, no runtime.
func BenchmarkFig3(b *testing.B) {
	const n = 128
	for _, tile := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("b=%d", tile), func(b *testing.B) {
			a, _ := kernels.NewTiled(n, tile)
			bm, _ := kernels.NewTiled(n, tile)
			c, _ := kernels.NewTiled(n, tile)
			kernels.DiagDominant(a, 1)
			kernels.DiagDominant(bm, 2)
			nt := n / tile
			flops := 2.0 * float64(n) * float64(n) * float64(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ii := 0; ii < nt; ii++ {
					for jj := 0; jj < nt; jj++ {
						for kk := 0; kk < nt; kk++ {
							kernels.GemmTile(c.Tile(ii, jj), a.Tile(ii, kk), bm.Tile(kk, jj), tile)
						}
					}
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds() / float64(b.N)
			if sec > 0 {
				b.ReportMetric(flops/sec/1e9, "GFLOPS")
			}
		})
	}
}

// BenchmarkFig2And4 — Figures 2 and 4: the tiled matrix product under the
// parallel runtimes across tile sizes (wall time = Fig 2; the e_p/e_r
// metrics = the runtime-side factors of Fig 4).
func BenchmarkFig2And4(b *testing.B) {
	const n = 128
	for _, tile := range []int{8, 16, 32, 64} {
		nt := n / tile
		g := graphs.GEMM(nt)
		m := sched.OwnerComputes(g, sched.NewGrid2D(benchWorkers))
		for _, model := range []rio.Model{rio.InOrder, rio.Centralized} {
			b.Run(fmt.Sprintf("b=%d/%s", tile, model), func(b *testing.B) {
				a, _ := kernels.NewTiled(n, tile)
				bm, _ := kernels.NewTiled(n, tile)
				c, _ := kernels.NewTiled(n, tile)
				kernels.DiagDominant(a, 1)
				kernels.DiagDominant(bm, 2)
				kern := graphs.GEMMKernel(a, bm, c)
				rt := newRuntime(b, model, benchWorkers, m)
				prog := rio.Replay(g, kern)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rt.Run(g.NumData, prog); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := rt.Stats()
				task, idle, _ := st.Cumulative()
				if total := st.TotalCumulative(); total > 0 && task+idle > 0 {
					b.ReportMetric(float64(task)/float64(task+idle), "e_p")
					b.ReportMetric(float64(task+idle)/float64(total), "e_r")
				}
			})
		}
	}
}

// BenchmarkTable1 — Table 1: model-checking cost of the STF and
// Run-In-Order specifications on tiled-LU instances; the state counts are
// reported as metrics.
func BenchmarkTable1(b *testing.B) {
	for _, sz := range [][2]int{{2, 2}, {3, 2}, {3, 3}} {
		g := graphs.LURect(sz[0], sz[1])
		mod, err := spec.NewModel(g, 2, sched.Cyclic(2))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dx%d/STF", sz[0], sz[1]), func(b *testing.B) {
			var res *spec.Result
			for i := 0; i < b.N; i++ {
				res = mod.CheckSTF()
			}
			if !res.OK() {
				b.Fatalf("violations: %v", res.Violations)
			}
			b.ReportMetric(float64(res.Distinct), "states")
			b.ReportMetric(float64(res.Generated), "generated")
		})
		b.Run(fmt.Sprintf("%dx%d/RIO", sz[0], sz[1]), func(b *testing.B) {
			var res *spec.Result
			for i := 0; i < b.N; i++ {
				res = mod.CheckRIO(spec.RIOOptions{})
			}
			if !res.OK() {
				b.Fatalf("violations: %v", res.Violations)
			}
			b.ReportMetric(float64(res.Distinct), "states")
			b.ReportMetric(float64(res.Generated), "generated")
		})
	}
}

// BenchmarkHPL — the paper's motivating application (§1): blocked LU with
// partial pivoting, whose panel work is inherently fine-grained. Narrower
// panels raise the fine-grained share; RIO's advantage grows with it.
func BenchmarkHPL(b *testing.B) {
	const n = 96
	for _, pw := range []int{8, 24} {
		f, err := hpl.NewFlow(n, pw)
		if err != nil {
			b.Fatal(err)
		}
		for _, model := range []rio.Model{rio.InOrder, rio.Centralized} {
			b.Run(fmt.Sprintf("b=%d/%s", pw, model), func(b *testing.B) {
				var kerr error
				kern := f.Kernel(func(e error) { kerr = e })
				rt := newRuntime(b, model, benchWorkers, f.ColumnMapping(benchWorkers))
				prog := rio.Replay(f.Graph, kern)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					f.A.FillRandom(uint64(i) + 1)
					b.StartTimer()
					if err := rt.Run(f.Graph.NumData, prog); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if kerr != nil {
					b.Fatal(kerr)
				}
				b.ReportMetric(f.FLOPs()/(b.Elapsed().Seconds()/float64(b.N))/1e9, "GFLOPS")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(f.Graph.Tasks)), "ns/task")
			})
		}
	}
}

// BenchmarkPerTaskOverhead isolates the runtime cost the whole paper is
// about: per-task management time with empty task bodies (the ablation
// behind cost models (1) and (2)).
func BenchmarkPerTaskOverhead(b *testing.B) {
	g := graphs.Independent(4096)
	noop := func(*stf.Task, stf.WorkerID) {}
	for _, model := range []rio.Model{rio.InOrder, rio.Centralized, rio.CentralizedWS, rio.Sequential} {
		b.Run(model.String(), func(b *testing.B) {
			workers := benchWorkers
			if model == rio.Sequential {
				workers = 1
			}
			rt := newRuntime(b, model, workers, rio.CyclicMapping(workers))
			prog := rio.Replay(g, noop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Run(g.NumData, prog); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
}

// BenchmarkGuardOverhead measures the per-task price of the
// replay-divergence guard (a few private multiply-xor steps per submitted
// task, plus one mutexed checkpoint per 256 tasks): the same empty-body
// workload with the guard on (the default) and off (NoGuard — the
// NoAccounting-style opt-out for overhead micro-measurements).
func BenchmarkGuardOverhead(b *testing.B) {
	g := graphs.Independent(4096)
	noop := func(*stf.Task, stf.WorkerID) {}
	for _, variant := range []struct {
		name    string
		noGuard bool
	}{{"guard=on", false}, {"guard=off", true}} {
		b.Run(variant.name, func(b *testing.B) {
			rt, err := rio.New(rio.Options{
				Model:   rio.InOrder,
				Workers: benchWorkers,
				Mapping: rio.CyclicMapping(benchWorkers),
				NoGuard: variant.noGuard,
			})
			if err != nil {
				b.Fatal(err)
			}
			prog := rio.Replay(g, noop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Run(g.NumData, prog); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
}

// BenchmarkAccountingOverhead prices the stopwatch: what Options.NoAccounting
// takes off a run — two monotonic clock reads around every task body and
// around every dependency wait, behind Stats' time decomposition and
// Progress's wait histogram. The flow is the one rio-serve's warm path
// replays (a 12×12-tile Cholesky, 364 tasks, compiled once and run the way
// the service runs it) with empty bodies on two workers, so the clock reads
// are not hidden behind any work: a body's reads sit on the hand-off chain
// between the workers, a wait's overlap the wait. This is the worst case,
// and the number behind internal/server's one-run-in-16 sampling.
func BenchmarkAccountingOverhead(b *testing.B) {
	const workers = 2
	g := graphs.Cholesky(12)
	noop := func(*stf.Task, stf.WorkerID) {}
	cp, err := rio.Compile(g, workers, rio.CyclicMapping(workers), true)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name   string
		noAcct bool
	}{{"accounted", false}, {"unaccounted", true}} {
		b.Run(v.name, func(b *testing.B) {
			e, err := rio.NewEngine(rio.Options{Workers: workers, NoAccounting: v.noAcct})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.RunCompiled(cp, noop); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
}

// BenchmarkCompiledReplay — the replay term n·t_r of cost model (2), paid
// per run under closure replay and hoisted to compile time by the
// compiled fast path. The Fig 7 weak-scaling workload (independent tasks,
// cyclic mapping) with empty bodies makes the run almost pure replay
// overhead, so ns/task compares t_r directly across the variants.
func BenchmarkCompiledReplay(b *testing.B) {
	// Paper-scale flow (§5.2 uses 32768 tasks per worker): long enough
	// that replay work, not the per-run goroutine spawn, dominates.
	g := graphs.Independent(32768)
	noop := func(*stf.Task, stf.WorkerID) {}
	m := rio.CyclicMapping(benchWorkers)
	perTask := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
	}

	// NoAccounting everywhere: the two clock reads per executed task would
	// otherwise floor every variant at the clock cost (that is what the
	// option is for; BenchmarkAccountingOverhead prices it).
	b.Run("closure", func(b *testing.B) {
		rt, err := rio.New(rio.Options{Model: rio.InOrder, Workers: benchWorkers, Mapping: m, NoAccounting: true})
		if err != nil {
			b.Fatal(err)
		}
		prog := rio.Replay(g, noop)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Run(g.NumData, prog); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		perTask(b)
	})
	for _, v := range []struct {
		name  string
		prune bool
	}{{"compiled", false}, {"compiled-pruned", true}} {
		b.Run(v.name, func(b *testing.B) {
			e, err := rio.NewEngine(rio.Options{Workers: benchWorkers, Mapping: m, Prune: v.prune, NoAccounting: true})
			if err != nil {
				b.Fatal(err)
			}
			// Compile outside the timed region: the point of the fast
			// path is that iterative workloads pay unrolling once.
			if err := e.RunGraph(g, noop); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.RunGraph(g, noop); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perTask(b)
		})
	}
	// Independent tasks have no accesses, so nothing above sees what an
	// access costs. chain-private gives every task one: 65536 RW tasks over
	// 256 chains, each chain on one worker under the cyclic mapping — the
	// uncontended-data case, which the compiler lowers to bare execs.
	// chain-canonical replays the same flow lowered without elision (get,
	// exec, terminate per task, the shared-cell atomics of Algorithm 2), as
	// an engine with stealing armed runs it: the two rows price elision.
	chains := stf.NewGraph("chain-private", 256)
	for i := 0; i < 65536; i++ {
		chains.Add(0, i, 0, 0, stf.RW(stf.DataID(i%256)))
	}
	canonical, err := stf.CompileCanonical(chains, m, benchWorkers, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		cp   *rio.CompiledProgram // nil: RunGraph's own (elided) lowering
	}{{"chain-private", nil}, {"chain-canonical", canonical}} {
		b.Run(v.name, func(b *testing.B) {
			e, err := rio.NewEngine(rio.Options{Workers: benchWorkers, Mapping: m, NoAccounting: true})
			if err != nil {
				b.Fatal(err)
			}
			run := func() error { return e.RunGraph(chains, noop) }
			if v.cp != nil {
				run = func() error { return e.RunCompiled(v.cp, noop) }
			}
			if err := run(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(chains.Tasks)), "ns/task")
		})
	}
}

// BenchmarkSyncContention — the synchronization ablation's contended shape
// as a testing.B target: rounds of one writer
// followed by benchWorkers parallel readers of a single data object, so
// every task blocks on a hand-off through one shared cell and ns/task is
// almost entirely the phase-3 wait path. Sub-benchmarks sweep the wait
// policies; `rio-bench sync` runs the same shape with CPU-time columns.
func BenchmarkSyncContention(b *testing.B) {
	g := graphs.ReadersWriter(256, benchWorkers)
	noop := func(*stf.Task, stf.WorkerID) {}
	m := rio.CyclicMapping(benchWorkers)
	for _, pol := range []rio.WaitPolicy{rio.WaitAdaptive, rio.WaitSpin, rio.WaitPark} {
		b.Run(pol.String(), func(b *testing.B) {
			rt, err := rio.New(rio.Options{
				Model: rio.InOrder, Workers: benchWorkers, Mapping: m,
				Tuning: rio.TuningOptions{WaitPolicy: pol}, NoAccounting: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			prog := rio.Replay(g, noop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Run(g.NumData, prog); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
}

// BenchmarkDeclareOverhead measures the paper's headline micro-cost: the
// per-task price a RIO worker pays for a task it does NOT execute (§3.3
// promises one or two private-memory writes per dependency). A single
// worker owns every task; the others only declare.
func BenchmarkDeclareOverhead(b *testing.B) {
	g := graphs.RandomDeps(4096, 64, 2, 1, 7)
	noop := func(*stf.Task, stf.WorkerID) {}
	rt := newRuntime(b, rio.InOrder, benchWorkers, sched.Single(0))
	prog := rio.Replay(g, noop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(g.NumData, prog); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Stats describe the last run; each run declares the same count.
	if d := rt.Stats().Declared(); d > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d), "ns/declare")
	}
}

// BenchmarkHookOverhead measures the cost of the lifecycle-hook API on the
// replay hot path. The nil-hooks variant is the baseline every existing
// caller pays (one pointer test per hook site); "empty" installs a Hooks
// struct with no callbacks set (per-callback nil tests); "counting" installs
// minimal atomic counters in the per-task callbacks, the cheapest useful
// instrumentation. Independent tasks with empty bodies and NoAccounting make
// per-task engine overhead the entire signal, so ns/task deltas bound the
// hook tax directly.
func BenchmarkHookOverhead(b *testing.B) {
	g := graphs.Independent(32768)
	noop := func(*stf.Task, stf.WorkerID) {}
	m := rio.CyclicMapping(benchWorkers)
	var started, ended atomic.Int64
	for _, v := range []struct {
		name  string
		hooks *rio.Hooks
	}{
		{"nil-hooks", nil},
		{"empty-hooks", &rio.Hooks{}},
		{"counting-hooks", &rio.Hooks{
			OnTaskStart: func(rio.WorkerID, rio.TaskID) { started.Add(1) },
			OnTaskEnd:   func(rio.WorkerID, rio.TaskID) { ended.Add(1) },
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			rt, err := rio.New(rio.Options{
				Model: rio.InOrder, Workers: benchWorkers, Mapping: m,
				NoAccounting: true, Hooks: v.hooks,
			})
			if err != nil {
				b.Fatal(err)
			}
			prog := rio.Replay(g, noop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Run(g.NumData, prog); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
}

// BenchmarkRetryOverhead bounds the hot-path tax of the fault-tolerance
// machinery. "nil-policy" is what every pre-existing caller pays after
// this feature landed: one pointer test per task (it must stay
// indistinguishable from the historical per-task overhead). "retry-armed"
// installs a policy plus snapshotter on a fault-free run, pricing the
// always-taken snapshot/bookkeeping path; "checkpoint" prices completed-task
// tracking alone. Independent empty-body tasks with NoAccounting make
// per-task engine overhead the entire signal.
func BenchmarkRetryOverhead(b *testing.B) {
	g := graphs.Independent(32768)
	noop := func(*stf.Task, stf.WorkerID) {}
	m := rio.CyclicMapping(benchWorkers)
	// Empty-body tasks write nothing, so the armed policy needs no real
	// snapshot storage; the Snapshotter still prices the capability test.
	snaps := rio.SnapshotFuncs{Save: func(rio.DataID) func() { return func() {} }}
	for _, v := range []struct {
		name string
		opts rio.Options
	}{
		{"nil-policy", rio.Options{}},
		{"checkpoint", rio.Options{Fault: rio.FaultOptions{Checkpoint: true}}},
		{"retry-armed", rio.Options{Fault: rio.FaultOptions{Retry: &rio.RetryPolicy{MaxAttempts: 3}, Snapshots: snaps}}},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts := v.opts
			opts.Model = rio.InOrder
			opts.Workers = benchWorkers
			opts.Mapping = m
			opts.NoAccounting = true
			rt, err := rio.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			prog := rio.Replay(g, noop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Run(g.NumData, prog); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
}

// BenchmarkStealOverhead bounds the hot-path tax of the work-stealing
// machinery when nobody steals. "nil-policy" is what every pre-existing
// caller pays after the hybrid model landed: one flag test per compiled
// micro-op, in the interpreter loop armed replays share.
// "steal-armed-compiled" installs a policy on a *balanced* cyclic mapping,
// so no worker ever finds a victim worth robbing: it prices the owner's
// per-task claim plus the idle-probe path (the steal metadata is built
// once, outside the timed region). "steal-armed" is a closure Run on the
// same armed engine: every run records the program, compiles it
// canonically and builds its steal tables before replaying it, so the gap
// to steal-armed-compiled is that per-run lowering. Independent empty-body
// tasks with NoAccounting make per-task engine overhead the entire signal.
func BenchmarkStealOverhead(b *testing.B) {
	g := graphs.Independent(32768)
	noop := func(*stf.Task, stf.WorkerID) {}
	m := rio.CyclicMapping(benchWorkers)
	pol := &rio.StealPolicy{}
	for _, v := range []struct {
		name     string
		compiled bool
		steal    *rio.StealPolicy
	}{
		{"nil-policy", false, nil},
		{"nil-policy-compiled", true, nil},
		{"steal-armed", false, pol},
		{"steal-armed-compiled", true, pol},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts := rio.Options{
				Workers: benchWorkers, Mapping: m, Steal: v.steal,
				NoAccounting: true,
			}
			if v.compiled {
				e, err := rio.NewEngine(opts)
				if err != nil {
					b.Fatal(err)
				}
				// Compile (and build steal metadata) outside the timed
				// region, as iterative workloads do.
				if err := e.RunGraph(g, noop); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.RunGraph(g, noop); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				opts.Model = rio.InOrder
				rt, err := rio.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				prog := rio.Replay(g, noop)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rt.Run(g.NumData, prog); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
}

// BenchmarkVerifyOverhead prices Options.Verify, the translation
// validator run at every Engine cache miss. The steady-state cost must be
// zero — certification happens once, at the miss, and cache hits replay
// untouched streams — so the off/on sub-benchmarks are primed with one
// RunGraph before timing and should report identical ns/task. The
// certify-once sub-benchmark times the certificate itself (rio.Verify on
// a freshly compiled program), the one-off price a miss pays.
func BenchmarkVerifyOverhead(b *testing.B) {
	g := graphs.Independent(32768)
	noop := func(*stf.Task, stf.WorkerID) {}
	m := rio.CyclicMapping(benchWorkers)
	for _, v := range []struct {
		name   string
		verify bool
	}{{"off", false}, {"on", true}} {
		b.Run(v.name, func(b *testing.B) {
			e, err := rio.NewEngine(rio.Options{
				Workers: benchWorkers, Mapping: m, Prune: true,
				Verify: v.verify, NoAccounting: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Prime the cache (and pay certification) outside the timed
			// region; the loop then measures pure cache-hit replay.
			if err := e.RunGraph(g, noop); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.RunGraph(g, noop); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
	b.Run("certify-once", func(b *testing.B) {
		cp, err := rio.Compile(g, benchWorkers, m, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := rio.Verify(g, cp, m, nil); len(rep.Findings) != 0 {
				b.Fatal("clean program rejected")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
	})
}

// BenchmarkStreamPipeline — the streaming steady state: one window of a
// fixed shape (chains of RW tasks, chain-affine mapping) flushed per
// iteration through a long-lived session, so ns/task is the per-window
// protocol cost — joining the previous window, recycling its state,
// launching this window's workers and the replay itself — with the shape
// compiled once before the timer starts. The variants: the compiled
// shape-cache hit path, the closure window path (the same shape with the
// last task of every chain SharedWorker, which is what selects it), and the
// centralized baseline's per-window fallback run.
func BenchmarkStreamPipeline(b *testing.B) {
	const (
		chains   = 32
		chainLen = 8
	)
	noop := func(*stf.Task, stf.WorkerID) {}
	m := func(id rio.TaskID) rio.WorkerID { return rio.WorkerID(int(id) / chainLen % benchWorkers) }
	shared := rio.PartialMapping(m, func(id rio.TaskID) bool { return int(id)%chainLen == chainLen-1 })
	window := func(s *rio.Stream) {
		for c := 0; c < chains; c++ {
			for l := 0; l < chainLen; l++ {
				s.Task(0, c, l, 0, rio.RW(rio.DataID(c)))
			}
		}
	}
	for _, v := range []struct {
		name    string
		model   rio.Model
		mapping rio.Mapping
	}{
		{"stream-compiled", rio.InOrder, m},
		{"stream-shared", rio.InOrder, shared},
		{"fallback-centralized", rio.Centralized, m},
	} {
		b.Run(v.name, func(b *testing.B) {
			rt, err := rio.New(rio.Options{
				Model: v.model, Workers: benchWorkers, Mapping: v.mapping, NoAccounting: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := rio.OpenStream(rt, chains, rio.StreamOptions{MaxWindow: -1, Kernel: noop})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// One window outside the timed region compiles and caches the
			// shape; the loop measures the steady state.
			window(s)
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				window(s)
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(chains*chainLen), "ns/task")
		})
	}
}
