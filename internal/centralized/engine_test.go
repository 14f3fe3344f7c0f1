package centralized_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"rio/internal/centralized"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/stf"
)

func newEngine(t testing.TB, o centralized.Options) *centralized.Engine {
	t.Helper()
	e, err := centralized.New(o)
	if err != nil {
		t.Fatalf("centralized.New: %v", err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := centralized.New(centralized.Options{Workers: 1}); err == nil {
		t.Error("Workers=1 accepted (no executor would exist)")
	}
	if _, err := centralized.New(centralized.Options{Workers: 2, Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
}

func TestEngineMetadata(t *testing.T) {
	e := newEngine(t, centralized.Options{Workers: 4})
	if e.Name() != "centralized-fifo" {
		t.Errorf("Name() = %q", e.Name())
	}
	if e.NumWorkers() != 4 {
		t.Errorf("NumWorkers() = %d", e.NumWorkers())
	}
}

func TestSequentialConsistencyMatrix(t *testing.T) {
	workloads := []struct {
		name string
		g    *stf.Graph
	}{
		{"independent", graphs.Independent(200)},
		{"random-deps", graphs.RandomDeps(300, 16, 2, 1, 42)},
		{"gemm-4", graphs.GEMM(4)},
		{"lu-5", graphs.LU(5)},
		{"cholesky-5", graphs.Cholesky(5)},
		{"wavefront-6x6", graphs.Wavefront(6, 6)},
	}
	for _, wl := range workloads {
		for _, p := range []int{2, 3, 5} {
			e := newEngine(t, centralized.Options{Workers: p})
			if err := enginetest.Check(e, wl.g); err != nil {
				t.Errorf("%s p=%d: %v", wl.name, p, err)
			}
		}
	}
}

func TestSubmissionWindow(t *testing.T) {
	g := graphs.RandomDeps(400, 16, 2, 1, 11)
	for _, window := range []int{1, 2, 8, 64} {
		e := newEngine(t, centralized.Options{Workers: 3, Window: window})
		if err := enginetest.Check(e, g); err != nil {
			t.Errorf("window=%d: %v", window, err)
		}
	}
}

func TestMasterExecutesNoTasks(t *testing.T) {
	g := graphs.Independent(100)
	e := newEngine(t, centralized.Options{Workers: 3})
	if _, err := enginetest.Run(e, g); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Workers[0].Executed != 0 {
		t.Errorf("master executed %d tasks", st.Workers[0].Executed)
	}
	if st.Executed() != 100 {
		t.Errorf("total executed = %d, want 100", st.Executed())
	}
}

func TestClosureSubmitPath(t *testing.T) {
	e := newEngine(t, centralized.Options{Workers: 3})
	var sum atomic.Int64
	err := e.Run(1, func(s stf.Submitter) {
		if s.Worker() != stf.MasterWorker {
			t.Errorf("master reports worker %d", s.Worker())
		}
		if s.NumWorkers() != 3 {
			t.Errorf("NumWorkers = %d", s.NumWorkers())
		}
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

func TestOutOfOrderActuallyPossible(t *testing.T) {
	// Two independent chains: the OoO engine may interleave them in any
	// order; the oracle only requires per-chain order. This mainly guards
	// against accidentally serializing everything.
	g := stf.NewGraph("2chains", 2)
	for i := 0; i < 40; i++ {
		g.Add(0, i, 0, 0, stf.RW(stf.DataID(i%2)))
	}
	e := newEngine(t, centralized.Options{Workers: 3})
	if err := enginetest.Check(e, g); err != nil {
		t.Error(err)
	}
}

func TestTaskIDRegressionReported(t *testing.T) {
	e := newEngine(t, centralized.Options{Workers: 2})
	tasks := []stf.Task{{ID: 0}, {ID: 0}}
	err := e.Run(0, func(s stf.Submitter) {
		s.SubmitTask(&tasks[0], func(*stf.Task, stf.WorkerID) {})
		s.SubmitTask(&tasks[1], func(*stf.Task, stf.WorkerID) {})
	})
	if err == nil {
		t.Error("task ID regression not reported")
	}
}

func TestEngineReusable(t *testing.T) {
	e := newEngine(t, centralized.Options{Workers: 3})
	g := graphs.GEMM(3)
	for run := 0; run < 3; run++ {
		if err := enginetest.Check(e, g); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestEmptyProgram(t *testing.T) {
	e := newEngine(t, centralized.Options{Workers: 2})
	if err := e.Run(3, func(stf.Submitter) {}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsDecompositionSane(t *testing.T) {
	g := graphs.LU(6)
	e := newEngine(t, centralized.Options{Workers: 3})
	if _, err := enginetest.Run(e, g); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if len(st.Workers) != 3 {
		t.Fatalf("stats report %d workers, want 3 (master included)", len(st.Workers))
	}
	task, idle, rt := st.Cumulative()
	if task < 0 || idle < 0 || rt < 0 {
		t.Errorf("negative component: %v %v %v", task, idle, rt)
	}
	if st.Workers[0].Task != 0 {
		t.Errorf("master has task time %v", st.Workers[0].Task)
	}
}

// TestNoAccountingReadsNoClock: under NoAccounting no wait is timed — not
// an executor's queue pop, not the master's window or
// drain wait — so every worker reports zero task, idle and runtime and the
// wait histogram stays empty. The accounted control proves the flow waits.
func TestNoAccountingReadsNoClock(t *testing.T) {
	g := graphs.Chain(24)
	kern := func(*stf.Task, stf.WorkerID) { time.Sleep(200 * time.Microsecond) }
	for _, noAcct := range []bool{false, true} {
		e := newEngine(t, centralized.Options{Workers: 3, Window: 2, NoAccounting: noAcct})
		if err := e.Run(g.NumData, stf.Replay(g, kern)); err != nil {
			t.Fatal(err)
		}
		st, pr := e.Stats(), e.Progress()
		var waits int64
		for _, n := range pr.WaitHist() {
			waits += n
		}
		if !noAcct {
			if _, idle, _ := st.Cumulative(); st.Workers[0].Idle == 0 || idle == 0 || waits == 0 {
				t.Fatalf("accounted: master idle %v, idle %v, %d waits: the flow does not wait", st.Workers[0].Idle, idle, waits)
			}
			continue
		}
		for w, ws := range st.Workers {
			if ws.Task != 0 || ws.Idle != 0 || ws.Runtime != 0 {
				t.Errorf("worker %d task %v idle %v runtime %v under NoAccounting, want 0", w, ws.Task, ws.Idle, ws.Runtime)
			}
		}
		if waits != 0 {
			t.Errorf("%d waits bucketed under NoAccounting, want 0", waits)
		}
	}
}

func TestPropertySequentialConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 60, 10)
		p := 2 + rng.Intn(4)
		window := 0
		if rng.Intn(2) == 1 {
			window = 1 + rng.Intn(16)
		}
		e, err := centralized.New(centralized.Options{Workers: p, Window: window})
		if err != nil {
			return false
		}
		return enginetest.Check(e, g) == nil
	}
	cfg := &quick.Config{MaxCount: 100}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Cross-engine agreement: both execution models must produce the identical
// final state on the same pruned-oracle workloads (this is the paper's
// claim that the execution model is interchangeable under the programming
// model's semantics).
func TestAgreesWithDecentralizedEngine(t *testing.T) {
	g := graphs.RandomDeps(400, 24, 2, 1, 99)
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, centralized.Options{Workers: 4})
	got, err := enginetest.Run(e, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.Compare(g, want, got); err != nil {
		t.Error(err)
	}
}

// Regression test for a dispatch race: when a task declares many accesses,
// the master spends a long time wiring predecessor edges; predecessors
// completing during that window used to drive the pending count to zero
// prematurely and dispatch (hence execute) the task twice. Wide fan-in
// tasks over hot data maximize the window.
func TestNoDoubleDispatchUnderWideFanIn(t *testing.T) {
	const rounds = 40
	const width = 24
	g := stf.NewGraph("fanin", width)
	for r := 0; r < rounds; r++ {
		for d := 0; d < width; d++ {
			g.Add(0, r, d, 0, stf.RW(stf.DataID(d)))
		}
		// One task reading all data objects: width predecessor edges
		// wired while those predecessors are completing.
		accesses := make([]stf.Access, 0, width)
		for d := 0; d < width; d++ {
			accesses = append(accesses, stf.R(stf.DataID(d)))
		}
		g.Add(0, r, -1, 0, accesses...)
	}
	for rep := 0; rep < 20; rep++ {
		e := newEngine(t, centralized.Options{Workers: 4})
		var ran atomic.Int64
		if err := e.Run(g.NumData, stf.Replay(g, func(*stf.Task, stf.WorkerID) { ran.Add(1) })); err != nil {
			t.Fatal(err)
		}
		if got, want := ran.Load(), int64(len(g.Tasks)); got != want {
			t.Fatalf("rep %d: %d executions of %d tasks (double dispatch!)", rep, got, want)
		}
		if got := e.Stats().Executed(); got != int64(len(g.Tasks)) {
			t.Fatalf("rep %d: stats report %d executions", rep, got)
		}
	}
}
