package core_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// TestWaitEscalatesThroughSleepPhase drives the full spin → yield → park
// escalation: a producer that holds the dependency for several
// milliseconds, far longer than the spin and yield phases last.
func TestWaitEscalatesThroughSleepPhase(t *testing.T) {
	const delay = 5 * time.Millisecond
	e := newEngine(t, core.Options{Workers: 2, Mapping: sched.Cyclic(2)})
	var got int
	err := e.Run(1, func(s stf.Submitter) {
		s.Submit(func() {
			time.Sleep(delay)
			got = 1
		}, stf.W(0))
		s.Submit(func() { got *= 10 }, stf.RW(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("got = %d, want 10 (dependency violated)", got)
	}
	// Worker 1 (owner of task 1) must have accumulated idle time on the
	// order of the producer's delay.
	st := e.Stats()
	if idle := st.Workers[1].Idle; idle < delay/2 {
		t.Errorf("worker 1 idle = %v, want >= %v (wait not accounted)", idle, delay/2)
	}
}

// TestHeavyOversubscription runs 16 workers on one hardware thread; the
// escalation must keep the engine live on dependency-heavy graphs. The
// test previously relied on the host happening to be single-core —
// GOMAXPROCS is now pinned to 1 so the oversubscription is real
// everywhere: without the Gosched/park escalation phases, 16 goroutines
// busy-polling one thread would livelock (a pure busy-poll never yields,
// so the producing goroutine could never be scheduled).
func TestHeavyOversubscription(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, g := range []*stf.Graph{
		graphs.Chain(200),
		graphs.LU(6),
		graphs.RandomDeps(400, 16, 2, 1, 77),
	} {
		e := newEngine(t, core.Options{Workers: 16, Mapping: sched.Cyclic(16)})
		if err := enginetest.Check(e, g); err != nil {
			t.Errorf("%s p=16: %v", g.Name, err)
		}
	}
}

// TestOversubscribedTinySpinLimit is the same pressure on a strict chain:
// on one hardware thread a busy poll never sees its producer run, so every
// wait escalates and each worker's adaptive spin budget falls to its floor
// within its first waits. The yield and park phases then carry the run
// (proving the budget is not required for correctness, only latency).
func TestOversubscribedTinySpinLimit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newEngine(t, core.Options{Workers: 8, Mapping: sched.Cyclic(8)})
	if err := enginetest.Check(e, graphs.Chain(300)); err != nil {
		t.Fatal(err)
	}
}

// TestMixedClosureAndRecordedSubmission interleaves the two submission
// paths in one program; IDs must stay consistent across workers.
func TestMixedClosureAndRecordedSubmission(t *testing.T) {
	rec := stf.Task{ID: 1, Accesses: []stf.Access{stf.RW(0)}}
	rec2 := stf.Task{ID: 3, Accesses: []stf.Access{stf.R(0), stf.W(1)}}
	var mu sync.Mutex
	var order []stf.TaskID
	log := func(id stf.TaskID) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	kern := func(tk *stf.Task, _ stf.WorkerID) { log(tk.ID) }

	e := newEngine(t, core.Options{Workers: 3, Mapping: sched.Cyclic(3)})
	err := e.Run(2, func(s stf.Submitter) {
		s.Submit(func() { log(0) }, stf.W(0)) // id 0
		s.SubmitTask(&rec, kern)              // id 1
		s.Submit(func() { log(2) }, stf.R(0)) // id 2
		s.SubmitTask(&rec2, kern)             // id 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("executed %d tasks, want 4 (order %v)", len(order), order)
	}
	// Tasks 0 and 1 chain on data 0; 2 and 3 read data 0 after 1.
	pos := map[stf.TaskID]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos[0] > pos[1] || pos[1] > pos[2] || pos[1] > pos[3] {
		t.Errorf("order %v violates dependencies", order)
	}
}

// TestChainLatency sanity-checks the dependency hand-off path: a long
// strict chain across workers must finish and execute strictly in order.
func TestChainLatency(t *testing.T) {
	const n = 2000
	g := graphs.Chain(n)
	for _, p := range []int{2, 5} {
		e := newEngine(t, core.Options{Workers: p, Mapping: sched.Cyclic(p)})
		if err := enginetest.Check(e, g); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if e.Stats().Executed() != n {
			t.Fatalf("p=%d: executed %d", p, e.Stats().Executed())
		}
	}
}

// TestRunWithDifferentNumData reuses one engine across runs with different
// data counts (a pooled state too small for a run must not be borrowed).
func TestRunWithDifferentNumData(t *testing.T) {
	e := newEngine(t, core.Options{Workers: 2, Mapping: sched.Cyclic(2)})
	for _, g := range []*stf.Graph{
		graphs.RandomDeps(100, 4, 1, 1, 1),
		graphs.RandomDeps(100, 64, 2, 1, 2),
		graphs.Independent(50),
	} {
		if err := enginetest.Check(e, g); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}
