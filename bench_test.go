// Micro-benchmarks of the runtime's own costs, one layer at a time: per-task
// overhead per model, the divergence guard, accounting, run width, compiled
// replay, wait contention, declaration, hooks, stealing, certification
// and streaming. Each reports ns/task (or its own unit) next to the standard
// columns; -benchmem adds what a run allocates.
//
// The paper's tables and figures are not here: cmd/rio-bench regenerates
// each of them from one command (see EXPERIMENTS.md).
package rio_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/stf"
)

const benchWorkers = 4

func newRuntime(b *testing.B, model rio.Model, workers int, m rio.Mapping) rio.Runtime {
	b.Helper()
	// Unaccounted, as the benchmark ledger's engines are: an accounted run
	// reads the clock twice a task, which on empty bodies is most of what
	// it times (BenchmarkAccountingOverhead prices it).
	rt, err := rio.New(rio.Options{Model: model, Workers: workers, Mapping: m, NoAccounting: true})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkPerTaskOverhead isolates the runtime cost the whole paper is
// about: per-task management time with empty task bodies (the ablation
// behind cost models (1) and (2)).
func BenchmarkPerTaskOverhead(b *testing.B) {
	g := graphs.Independent(4096)
	noop := func(*stf.Task, stf.WorkerID) {}
	for _, model := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
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
// and the number behind internal/server's one-run-in-16 sampling. The
// watchdog case is unaccounted with the stall watchdog armed: what arming
// it adds to a run (its monitor goroutine and ticker, and whatever the
// workers publish for it).
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
		stall  time.Duration
	}{{"accounted", false, 0}, {"unaccounted", true, 0}, {"watchdog", true, time.Minute}} {
		b.Run(v.name, func(b *testing.B) {
			e, err := rio.NewEngine(rio.Options{Workers: workers, NoAccounting: v.noAcct, StallTimeout: v.stall})
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

// BenchmarkRunWidth is the run-width crossover behind rio-serve's width
// choice: the warm path's flow (a 12×12-tile Cholesky, pruned, no
// accounting) run on one engine of p = 2 workers by its 1-worker program
// and by its 2-worker one, with empty bodies and with bodies of 200 and
// 2 000 spin steps. At width 1 the compiled stream is bare exec words and
// the caller is the only worker; at width 2 the run pays the spawn, the
// join and every cross-worker hand-off, and wins only once the bodies are
// dear enough to overlap (eq. (2): n·t_r + n·t_t/w, plus a fixed cost per
// run that grows with w).
func BenchmarkRunWidth(b *testing.B) {
	const p = 2
	g := graphs.Cholesky(12)
	e, err := rio.NewEngine(rio.Options{Workers: p, NoAccounting: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, steps := range []uint64{0, 200, 2000} {
		body := func(*stf.Task, stf.WorkerID) {}
		name := "noop"
		if steps > 0 {
			name = fmt.Sprintf("spin%d", steps)
			body = func(*stf.Task, stf.WorkerID) {
				var cell uint64
				kernels.Spin(&cell, steps)
			}
		}
		for _, w := range []int{1, p} {
			cp, err := rio.Compile(g, w, nil, true)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/w=%d", name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := e.RunCompiled(cp, body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWarmRun is the run a warm rio-serve request makes once it holds
// its tenant's turn: the 364 no-op tasks of a 12×12-tile Cholesky at width
// 1, whose compiled stream is bare exec words, on an engine of p = 2 with
// no accounting. Eq. (2)'s n·t_t is near zero here, so ns/task is the
// per-task bookkeeping — the progress cell's one store — plus the run's
// fixed cost spread over its tasks.
func BenchmarkWarmRun(b *testing.B) {
	g := graphs.Cholesky(12)
	e, err := rio.NewEngine(rio.Options{Workers: 2, NoAccounting: true})
	if err != nil {
		b.Fatal(err)
	}
	cp, err := rio.Compile(g, 1, nil, true)
	if err != nil {
		b.Fatal(err)
	}
	noop := func(*stf.Task, stf.WorkerID) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunCompiled(cp, noop); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
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

// BenchmarkSyncContention — `rio-bench sync`'s contended shape as a
// testing.B target: rounds of one writer followed by benchWorkers parallel
// readers of a single data object, so every task blocks on a hand-off
// through one shared cell and ns/task is almost entirely the phase-3 wait
// path. `rio-bench sync` runs the same shape with CPU-time columns.
func BenchmarkSyncContention(b *testing.B) {
	g := graphs.ReadersWriter(256, benchWorkers)
	noop := func(*stf.Task, stf.WorkerID) {}
	rt, err := rio.New(rio.Options{
		Model: rio.InOrder, Workers: benchWorkers, Mapping: rio.CyclicMapping(benchWorkers),
		NoAccounting: true,
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
