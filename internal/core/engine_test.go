package core_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

func newEngine(t testing.TB, o core.Options) *core.Engine {
	t.Helper()
	e, err := core.New(o)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := core.New(core.Options{Workers: 0}); err == nil {
		t.Error("Workers=0 accepted")
	}
	if _, err := core.New(core.Options{Workers: -3}); err == nil {
		t.Error("negative Workers accepted")
	}
	if _, err := core.New(core.Options{Workers: 1}); err != nil {
		t.Errorf("Workers=1 rejected: %v", err)
	}
}

func TestRunRejectsNegativeNumData(t *testing.T) {
	e := newEngine(t, core.Options{Workers: 1})
	if err := e.Run(-1, func(stf.Submitter) {}); err == nil {
		t.Error("negative numData accepted")
	}
}

func TestEngineMetadata(t *testing.T) {
	e := newEngine(t, core.Options{Workers: 3})
	if e.Name() != "rio" {
		t.Errorf("Name() = %q", e.Name())
	}
	if e.NumWorkers() != 3 {
		t.Errorf("NumWorkers() = %d", e.NumWorkers())
	}
}

// The central correctness matrix: every workload of the paper's evaluation,
// under several worker counts and mappings, must produce exactly the
// sequential reference result and a dependency-respecting execution order.
func TestSequentialConsistencyMatrix(t *testing.T) {
	workloads := []struct {
		name string
		g    *stf.Graph
	}{
		{"independent", graphs.Independent(200)},
		{"random-deps", graphs.RandomDeps(300, 16, 2, 1, 42)},
		{"random-deps-paper", graphs.RandomDeps(200, 128, 2, 1, 7)},
		{"gemm-4", graphs.GEMM(4)},
		{"lu-5", graphs.LU(5)},
		{"cholesky-5", graphs.Cholesky(5)},
		{"wavefront-6x6", graphs.Wavefront(6, 6)},
		{"chain", chain(64)},
		{"fanout", fanOut(64)},
	}
	for _, wl := range workloads {
		if err := wl.g.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", wl.name, err)
		}
		for _, p := range []int{1, 2, 3, 4, 7} {
			mappings := map[string]stf.Mapping{
				"cyclic": sched.Cyclic(p),
				"block":  sched.Block(len(wl.g.Tasks), p),
				"bc4":    sched.BlockCyclic(p, 4),
			}
			for mname, m := range mappings {
				e := newEngine(t, core.Options{Workers: p, Mapping: m})
				if err := enginetest.Check(e, wl.g); err != nil {
					t.Errorf("%s p=%d mapping=%s: %v", wl.name, p, mname, err)
				}
			}
		}
	}
}

func TestOwnerComputesMapping(t *testing.T) {
	for _, p := range []int{2, 4, 6} {
		grid := sched.NewGrid2D(p)
		for _, g := range []*stf.Graph{graphs.LU(6), graphs.Cholesky(6), graphs.GEMM(4)} {
			m := sched.OwnerComputes(g, grid)
			if err := sched.Validate(g, m, p); err != nil {
				t.Fatalf("p=%d %s: %v", p, g.Name, err)
			}
			e := newEngine(t, core.Options{Workers: p, Mapping: m})
			if err := enginetest.Check(e, g); err != nil {
				t.Errorf("p=%d %s owner-computes: %v", p, g.Name, err)
			}
		}
	}
}

func TestSingleWorkerMatchesSequential(t *testing.T) {
	g := graphs.LU(4)
	e := newEngine(t, core.Options{Workers: 1})
	if err := enginetest.Check(e, g); err != nil {
		t.Error(err)
	}
	st := e.Stats()
	if st.Executed() != int64(len(g.Tasks)) {
		t.Errorf("executed %d tasks, want %d", st.Executed(), len(g.Tasks))
	}
	if st.Declared() != 0 {
		t.Errorf("single worker declared %d foreign tasks", st.Declared())
	}
}

func TestTaskCountsAcrossWorkers(t *testing.T) {
	g := graphs.RandomDeps(500, 32, 2, 1, 3)
	p := 4
	e := newEngine(t, core.Options{Workers: p, Mapping: sched.Cyclic(p)})
	if _, err := enginetest.Run(e, g); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	n := int64(len(g.Tasks))
	if st.Executed() != n {
		t.Errorf("executed = %d, want %d", st.Executed(), n)
	}
	// Every worker unrolls the whole flow: executed + declared == n for
	// each worker (the decentralized overhead the paper's Fig. 7 shows).
	for w, ws := range st.Workers {
		if ws.Executed+ws.Declared != n {
			t.Errorf("worker %d processed %d tasks, want %d", w, ws.Executed+ws.Declared, n)
		}
	}
	if st.Declared() != n*int64(p-1) {
		t.Errorf("declared = %d, want %d", st.Declared(), n*int64(p-1))
	}
}

func TestClosureSubmitPath(t *testing.T) {
	const p = 3
	e := newEngine(t, core.Options{Workers: p, Mapping: sched.Cyclic(p)})
	var sum atomic.Int64
	err := e.Run(1, func(s stf.Submitter) {
		for i := 1; i <= 10; i++ {
			v := int64(i)
			s.Submit(func() { sum.Add(v) }, stf.RW(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 55 {
		t.Errorf("sum = %d, want 55", sum.Load())
	}
}

func TestClosureSubmitOrderOnSharedData(t *testing.T) {
	// All tasks RW the same data: execution must follow submission order
	// exactly, whichever worker owns each task.
	const p = 4
	e := newEngine(t, core.Options{Workers: p, Mapping: sched.Cyclic(p)})
	var got []int
	err := e.Run(1, func(s stf.Submitter) {
		for i := 0; i < 50; i++ {
			i := i
			s.Submit(func() { got = append(got, i) }, stf.RW(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("executed %d tasks, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d executed task %d: chain order broken", i, v)
		}
	}
}

func TestMappingOutOfRangeReported(t *testing.T) {
	e := newEngine(t, core.Options{
		Workers: 2,
		Mapping: func(id stf.TaskID) stf.WorkerID { return 5 },
	})
	g := graphs.Independent(4)
	err := e.Run(0, stf.Replay(g, func(*stf.Task, stf.WorkerID) {}))
	if err == nil {
		t.Error("out-of-range mapping not reported")
	}
}

func TestTaskIDRegressionReported(t *testing.T) {
	e := newEngine(t, core.Options{Workers: 1})
	tasks := []stf.Task{{ID: 0}, {ID: 0}}
	err := e.Run(0, func(s stf.Submitter) {
		s.SubmitTask(&tasks[0], func(*stf.Task, stf.WorkerID) {})
		s.SubmitTask(&tasks[1], func(*stf.Task, stf.WorkerID) {})
	})
	if err == nil {
		t.Error("task ID regression not reported")
	}
}

func TestNoAccountingStillCounts(t *testing.T) {
	g := graphs.LU(4)
	e := newEngine(t, core.Options{Workers: 2, Mapping: sched.Cyclic(2), NoAccounting: true})
	if err := enginetest.Check(e, g); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Accounted {
		t.Error("stats claim accounting was on")
	}
	if st.Executed() != int64(len(g.Tasks)) {
		t.Errorf("executed = %d, want %d", st.Executed(), len(g.Tasks))
	}
	if st.Wall <= 0 {
		t.Error("wall time not measured")
	}
}

func TestStatsDecompositionSane(t *testing.T) {
	g := graphs.LU(6)
	e := newEngine(t, core.Options{Workers: 3, Mapping: sched.Cyclic(3)})
	if _, err := enginetest.Run(e, g); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	task, idle, rt := st.Cumulative()
	if task < 0 || idle < 0 || rt < 0 {
		t.Errorf("negative component: task=%v idle=%v runtime=%v", task, idle, rt)
	}
	if total := st.TotalCumulative(); task+idle+rt > total+total/4 {
		t.Errorf("components sum %v exceeds cumulative %v by >25%%", task+idle+rt, total)
	}
	for w, ws := range st.Workers {
		if ws.Wall < ws.Task+ws.Idle {
			t.Errorf("worker %d: wall %v < task %v + idle %v", w, ws.Wall, ws.Task, ws.Idle)
		}
	}
}

func TestEngineReusable(t *testing.T) {
	e := newEngine(t, core.Options{Workers: 2, Mapping: sched.Cyclic(2)})
	g := graphs.GEMM(3)
	for run := 0; run < 3; run++ {
		if err := enginetest.Check(e, g); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestPrunedReplayEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *stf.Graph
	}{
		{"independent", graphs.Independent(128)},
		{"lu", graphs.LU(6)},
		{"gemm", graphs.GEMM(4)},
		{"wavefront", graphs.Wavefront(5, 5)},
	} {
		want, err := enginetest.Golden(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4} {
			m := sched.Cyclic(p)
			if tc.g.Name != "independent" {
				m = sched.OwnerComputes(tc.g, sched.NewGrid2D(p))
			}
			rel := sched.Relevant(tc.g, m, p)
			e := newEngine(t, core.Options{Workers: p, Mapping: m})
			got, err := enginetest.RunProgram(e, tc.g, func(k stf.Kernel) stf.Program {
				return sched.PrunedReplay(tc.g, k, rel)
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			if err := enginetest.Compare(tc.g, want, got); err != nil {
				t.Errorf("%s p=%d pruned: %v", tc.name, p, err)
			}
		}
	}
}

func TestPruningReducesDeclared(t *testing.T) {
	g := graphs.Independent(1000)
	p := 4
	m := sched.Cyclic(p)
	rel := sched.Relevant(g, m, p)

	full := newEngine(t, core.Options{Workers: p, Mapping: m})
	if _, err := enginetest.Run(full, g); err != nil {
		t.Fatal(err)
	}
	pruned := newEngine(t, core.Options{Workers: p, Mapping: m})
	if _, err := enginetest.RunProgram(pruned, g, func(k stf.Kernel) stf.Program {
		return sched.PrunedReplay(g, k, rel)
	}); err != nil {
		t.Fatal(err)
	}
	if fd, pd := full.Stats().Declared(), pruned.Stats().Declared(); pd != 0 || fd == 0 {
		t.Errorf("independent tasks: full declared=%d, pruned declared=%d (want >0 and 0)", fd, pd)
	}
}

// Property-based test: random task flows, random mappings, random worker
// counts — the decentralized engine must always match the sequential
// reference.
func TestPropertySequentialConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 60, 10)
		p := 1 + rng.Intn(5)
		owners := make([]stf.WorkerID, len(g.Tasks))
		for i := range owners {
			owners[i] = stf.WorkerID(rng.Intn(p))
		}
		e, err := core.New(core.Options{Workers: p, Mapping: sched.Table(owners)})
		if err != nil {
			return false
		}
		return enginetest.Check(e, g) == nil
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property-based test for pruning: pruned replay must be observationally
// identical to full replay under any random graph and mapping.
func TestPropertyPrunedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 40, 8)
		p := 1 + rng.Intn(4)
		owners := make([]stf.WorkerID, len(g.Tasks))
		for i := range owners {
			owners[i] = stf.WorkerID(rng.Intn(p))
		}
		m := sched.Table(owners)
		want, err := enginetest.Golden(g)
		if err != nil {
			return false
		}
		rel := sched.Relevant(g, m, p)
		e, err := core.New(core.Options{Workers: p, Mapping: m})
		if err != nil {
			return false
		}
		got, err := enginetest.RunProgram(e, g, func(k stf.Kernel) stf.Program {
			return sched.PrunedReplay(g, k, rel)
		})
		if err != nil {
			return false
		}
		return enginetest.Compare(g, want, got) == nil
	}
	cfg := &quick.Config{MaxCount: 80}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEmptyProgram(t *testing.T) {
	e := newEngine(t, core.Options{Workers: 3, Mapping: sched.Cyclic(3)})
	if err := e.Run(5, func(stf.Submitter) {}); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().Executed(); n != 0 {
		t.Errorf("executed %d tasks in empty program", n)
	}
}

func TestManyDataObjects(t *testing.T) {
	// One write + one read per data over many data objects: exercises
	// state allocation and per-data independence.
	const nd = 2000
	g := stf.NewGraph("wide", nd)
	for d := 0; d < nd; d++ {
		g.Add(0, d, 0, 0, stf.W(stf.DataID(d)))
	}
	for d := 0; d < nd; d++ {
		g.Add(0, d, 0, 0, stf.R(stf.DataID(d)))
	}
	e := newEngine(t, core.Options{Workers: 4, Mapping: sched.Cyclic(4)})
	if err := enginetest.Check(e, g); err != nil {
		t.Error(err)
	}
}

func chain(n int) *stf.Graph {
	g := stf.NewGraph("chain", 1)
	for i := 0; i < n; i++ {
		g.Add(0, i, 0, 0, stf.RW(0))
	}
	return g
}

func fanOut(n int) *stf.Graph {
	g := stf.NewGraph("fanout", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	for i := 1; i < n; i++ {
		g.Add(0, i, 0, 0, stf.R(0))
	}
	return g
}

// A cancellation that loses the race against a completed run must not fail
// it: every worker finished cleanly, so every task ran and the flow met its
// deadline (the rule stream windows always had). The last task of a chain
// runs after every other task; its body waits until the other workers have
// replayed past it, cancels, and leaves the cancel callback time to raise
// the abort while the run is still in flight. Mid-run cancellation keeps
// returning the wrapped cause (TestCompiledCancellation,
// TestFaultCancelMidRun).
func TestCancelAfterLastTaskIsClean(t *testing.T) {
	const p, n = 3, 12
	g := graphs.Chain(n)
	m := sched.Cyclic(p)
	cp, err := stf.Compile(g, m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, compiled := range []bool{false, true} {
		e := newEngine(t, core.Options{Workers: p, Mapping: m})
		ctx, cancel := context.WithCancel(context.Background())
		kern := func(tk *stf.Task, w stf.WorkerID) {
			if int(tk.ID) != n-1 {
				return
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
				replayed := 0
				for o, wp := range e.Progress().Workers {
					if stf.WorkerID(o) != w && wp.Declared == n-n/p {
						replayed++
					}
				}
				if replayed == p-1 {
					break
				}
				if time.Now().After(deadline) {
					t.Error("the other workers never finished their replay")
					break
				}
			}
			cancel()
			time.Sleep(20 * time.Millisecond)
		}
		if compiled {
			err = e.RunCompiledContext(ctx, cp, kern)
		} else {
			err = e.RunContext(ctx, g.NumData, stf.Replay(g, kern))
		}
		cancel()
		if err != nil {
			t.Errorf("compiled=%v: run that completed before its cancellation was observed failed: %v", compiled, err)
		}
	}
}

// A cancellation that arrives late — mid-run, at the end, or after the run
// returned — belongs to its own run only. Runs of one engine share pooled
// state, so a late cancel must not reach the next run: after each canceled
// run, an uncancelable one must succeed and execute every task.
func TestLateCancelCannotReachLaterRun(t *testing.T) {
	const p, iters = 2, 2000
	g := graphs.LU(3)
	cp, err := stf.Compile(g, sched.Cyclic(p), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, core.Options{Workers: p})
	kern := func(*stf.Task, stf.WorkerID) {}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < iters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		returned, fired := make(chan struct{}), make(chan struct{})
		afterReturn, delay := rng.Intn(3) == 0, time.Duration(rng.Intn(100))*time.Microsecond
		go func() {
			defer close(fired)
			if afterReturn {
				<-returned
			} else {
				time.Sleep(delay)
			}
			cancel()
		}()
		_ = e.RunCompiledContext(ctx, cp, kern) // canceled or not: either is fine
		close(returned)
		if err := e.RunCompiled(cp, kern); err != nil {
			t.Fatalf("iteration %d: the run after a canceled one failed: %v", i, err)
		}
		if n := e.Stats().Executed(); n != int64(len(g.Tasks)) {
			t.Fatalf("iteration %d: the run after a canceled one executed %d of %d tasks", i, n, len(g.Tasks))
		}
		<-fired
	}
}
