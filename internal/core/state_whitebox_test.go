package core

// White-box tests of the pooled run state (state.go): a run borrows the
// state an earlier run gave back, so nothing an earlier run did — however
// it ended — may be visible to a later one, and a state that cannot be
// proven unreachable must never be handed out again.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// assertIdle fails t unless every word a run over numData data can reach is
// idle: the zero value.
func assertIdle(t *testing.T, st *runState, numData int) {
	t.Helper()
	if len(st.shared) < numData {
		t.Fatalf("borrowed a state for %d data with capacity %d", numData, len(st.shared))
	}
	for d := range st.shared[:numData] {
		c := &st.shared[d]
		if c.lastExecutedWrite.Load() != 0 || c.nbReadsSinceWrite.Load() != 0 || c.nbRedsSinceWrite.Load() != 0 ||
			c.waiters.Load() != 0 || c.parkCh != nil {
			t.Fatalf("data %d: shared cell not idle", d)
		}
		if !c.redMu.TryLock() {
			t.Fatalf("data %d: reduction mutex still held", d)
		}
		c.redMu.Unlock()
	}
	for w, s := range st.subs {
		if s.eng == nil {
			continue // a worker a narrow run leaves idle
		}
		for d, l := range s.local {
			if l != (localState{}) {
				t.Fatalf("worker %d data %d: local mirror %+v, want idle", w, d, l)
			}
		}
		if len(s.local) != numData || len(s.shared) != numData {
			t.Fatalf("worker %d: views of %d local and %d shared cells, want %d", w, len(s.local), len(s.shared), numData)
		}
		if s.next != 0 || s.err != nil || s.task != 0 || s.idle != 0 || s.guard != nil || s.watched || s.prog != s.eng.Table().Worker(w) {
			t.Fatalf("worker %d: submitter carries an earlier run's replay state", w)
		}
	}
	for _, pg := range st.claims.loaded() {
		for i := range pg.bits {
			if pg.bits[i].Load() != 0 {
				t.Fatal("claim table carries an earlier run's claims")
			}
		}
	}
	if cause, _ := st.abort.state(); st.abort.raised() || cause != nil {
		t.Fatal("abort latch still raised")
	}
}

// waitUntil polls cond for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting until %s", what)
			return
		}
	}
}

// TestRunStateReuseIsInvisible runs one engine through runs that leave
// their state in every condition a run can end in — a clean factorization,
// held reduction mutexes, a panic with the other worker parked on a gate, a
// cancellation — and through a data count that grows past the pooled
// state's capacity and shrinks back. Every borrowed state must be idle, and
// every run that completes must match the sequential oracle.
func TestRunStateReuseIsInvisible(t *testing.T) {
	const p = 2
	m := sched.Cyclic(p)
	// The default wait reaches the gate: the bodies below hold worker 1's
	// dependency until it has spun, yielded and parked.
	e, err := New(Options{Workers: p, Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*runState]bool{}
	borrows, reused := 0, 0
	var cur *runState
	e.borrowed = func(st *runState, numData int) {
		assertIdle(t, st, numData)
		borrows++
		if seen[st] {
			reused++
		}
		seen[st] = true
		cur = st
	}

	if err := enginetest.Check(e, graphs.LU(4)); err != nil {
		t.Fatalf("LU: %v", err)
	}
	if err := enginetest.Check(e, graphs.ReduceRounds(6, 9)); err != nil {
		t.Fatalf("reduction rounds: %v", err)
	}

	// Worker 0's body panics once worker 1 is parked on data 0's gate.
	err = e.Run(1, func(s stf.Submitter) {
		s.Submit(func() {
			waitUntil(t, "worker 1 parks", func() bool { return cur.shared[0].waiters.Load() > 0 })
			panic("boom")
		}, stf.W(0))
		s.Submit(func() {}, stf.RW(0))
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking run: %v", err)
	}

	// Worker 0's body cancels the run once worker 1 is parked, and returns
	// once the cancellation has raised the abort latch.
	ctx, cancel := context.WithCancel(context.Background())
	err = e.RunContext(ctx, 1, func(s stf.Submitter) {
		s.Submit(func() {
			waitUntil(t, "worker 1 parks", func() bool { return cur.shared[0].waiters.Load() > 0 })
			cancel()
			waitUntil(t, "the cancellation aborts the run", cur.abort.raised)
		}, stf.W(0))
		for i := 0; i < 4; i++ {
			s.Submit(func() {}, stf.RW(0))
		}
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v", err)
	}

	for i, nd := range []int{10, 400, 10} {
		if err := enginetest.Check(e, graphs.RandomDeps(2*nd+100, nd, 2, 1, int64(i))); err != nil {
			t.Fatalf("%d data: %v", nd, err)
		}
	}
	g := graphs.Wavefront(5, 5)
	cp, err := stf.Compile(g, m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.CheckCompiled(e, g, cp); err != nil {
		t.Fatalf("compiled: %v", err)
	}
	// The race detector drops pooled items at random; without it the pool
	// must actually have been used.
	if !raceEnabled && reused == 0 {
		t.Errorf("%d runs over %d states: no run borrowed a state an earlier one gave back", borrows, len(seen))
	}
}

// TestAbandonedRunStateNotReused: a run the watchdog abandons leaves a
// worker inside a task body, still holding the run's state; the next run
// of the engine must borrow another.
func TestAbandonedRunStateNotReused(t *testing.T) {
	e, err := New(Options{Workers: 2, Mapping: sched.Cyclic(2), StallTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var borrowed []*runState
	e.borrowed = func(st *runState, numData int) {
		assertIdle(t, st, numData)
		borrowed = append(borrowed, st)
	}
	if err := enginetest.Check(e, graphs.LU(3)); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	err = e.Run(1, func(s stf.Submitter) {
		s.Submit(func() { <-block }, stf.W(0))
	})
	if err == nil || !strings.Contains(err.Error(), "abandoned") {
		close(block)
		t.Fatalf("wedged run: %v, want an abandoned run", err)
	}
	abandoned := borrowed[len(borrowed)-1]
	if err := enginetest.Check(e, graphs.LU(3)); err != nil {
		t.Error(err)
	}
	if borrowed[len(borrowed)-1] == abandoned {
		t.Error("the run after an abandoned one borrowed the abandoned run's state")
	}
	close(block)
	<-abandoned.done // the wedged worker was the last one out
}

// TestRunAllocBudget: a warm engine's run allocates nothing proportional to
// its data and only a handful of objects — the progress table, the stats,
// the done channel and the workers' goroutines. Measured on the flow
// rio-serve's warm path replays (a 12×12-tile Cholesky) over its own 144
// data and over 10 000, at the engine's width and at width 1, where the
// caller is the only worker.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations and drops pooled items at random; the budget is for a plain build")
	}
	const workers, runs = 2, 200
	noop := func(*stf.Task, stf.WorkerID) {}
	perRun := func(width, numData int) (allocs float64, bytes uint64) {
		g := graphs.Cholesky(12)
		g.NumData = numData
		cp, err := stf.Compile(g, sched.Cyclic(width), width, nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Options{Workers: workers, NoAccounting: true})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := e.RunCompiled(cp, noop); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			run()
		}
		allocs = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	own := graphs.Cholesky(12).NumData
	for _, width := range []int{workers, 1} {
		allocs, bytes := perRun(width, own)
		_, wideBytes := perRun(width, 10_000)
		t.Logf("a warm run at width %d: %.1f allocations, %d B over %d data, %d B over 10 000", width, allocs, bytes, own, wideBytes)
		if allocs > 12 {
			t.Errorf("a warm run at width %d makes %.1f allocations, want at most 12", width, allocs)
		}
		if d := int64(wideBytes) - int64(bytes); d > 256 || d < -256 {
			t.Errorf("a warm run at width %d allocates %d B over %d data and %d B over 10 000: the per-data state is not reused", width, bytes, own, wideBytes)
		}
	}
}

// TestTakeIdleExclusive: a state a borrow found through Engine.lastIdle —
// the fallback when the pool's slot for the borrower's P is empty — stays
// in the pool as well, and the idle flag makes it the borrower's alone.
// While it is held takeIdle hands it out to no one (the pool's reference
// is dropped); once given back it is handed out once; and goroutines that
// borrow and give back at once, moving between Ps as they go, never hold
// one state together.
func TestTakeIdleExclusive(t *testing.T) {
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := e.newRunState(8)
	e.giveBack(st)
	// What takeIdle's fallback does when the pool misses.
	if held := e.lastIdle.Load().Value(); held != st || !held.idle.CompareAndSwap(true, false) {
		t.Fatal("the state given back last is not found idle through lastIdle")
	}
	if got := e.takeIdle(); got != nil {
		t.Fatalf("takeIdle handed out %p while it is held", got)
	}
	e.giveBack(st)
	if got := e.takeIdle(); got != st {
		t.Fatalf("takeIdle = %p after the give-back, want %p", got, st)
	}
	if got := e.takeIdle(); got != nil {
		t.Fatalf("takeIdle handed out %p twice", got)
	}

	var holders sync.Map // *runState → *atomic.Int32
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				st := e.takeIdle()
				if st == nil {
					st = e.newRunState(8)
				}
				n, _ := holders.LoadOrStore(st, new(atomic.Int32))
				if n.(*atomic.Int32).Add(1) != 1 {
					t.Error("two borrowers hold one state")
					return
				}
				runtime.Gosched()
				n.(*atomic.Int32).Add(-1)
				e.giveBack(st)
			}
		}()
	}
	wg.Wait()
}
