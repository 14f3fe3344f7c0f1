package core_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// goroutineBaseline returns the goroutine count to compare a test's
// later counts with, once the count has stopped falling: goroutine exits
// are asynchronous, so the priming run's may still be unwinding. A test
// binary's own goroutines keep the count above zero, so the count is taken
// when three polls 10 ms apart find it no lower, or after 2 s.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for still, polls := 0, 0; still < 3 && polls < 200; polls++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return runtime.NumGoroutine()
}

// settleGoroutines polls the goroutine count until it drops to the
// baseline (goroutine exits are asynchronous — a just-finished run's
// workers may still be unwinding) or a deadline passes.
func settleGoroutines(baseline int) int {
	var n int
	for i := 0; i < 200; i++ {
		n = runtime.NumGoroutine()
		if n <= baseline {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// streamOracle streams g through one session of e, size tasks a window
// (closure windows, window-local IDs), and compares the final data with
// the sequential fold of the whole flow.
func streamOracle(t *testing.T, e *core.Engine, g *stf.Graph, size int) {
	t.Helper()
	got, want := make([]uint64, g.NumData), make([]uint64, g.NumData)
	ss, err := e.OpenSession(g.NumData, 0)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(g.Tasks); lo += size {
		win := slices.Clone(g.Tasks[lo:min(lo+size, len(g.Tasks))])
		var touched []stf.DataID
		for i := range win {
			win[i].ID, win[i].I = stf.TaskID(i), lo+i
			enginetest.Fold(want)(&win[i], 0)
			for _, a := range win[i].Accesses {
				if !slices.Contains(touched, a.Data) {
					touched = append(touched, a.Data)
				}
			}
		}
		if err := ss.Flush(core.WindowRun{Tasks: win, Kernel: enginetest.Fold(got), Touched: touched}); err != nil {
			t.Fatalf("window at task %d: %v", lo, err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("streamed data %x, sequential %x", got, want)
	}
}

// TestSessionLeavesNoGoroutine: a stream window is a run — its workers live
// from the Flush that launches it to the join that receives their done — so
// an open session between windows, and a closed one, leaves the goroutine
// count where it was before OpenSession: after one window and Drain, after
// 200 windows and Close, after a window that times out (its error naming
// the worker it unwound from a dependency wait) and after one whose body
// panics. The engine's next session still matches the oracle.
func TestSessionLeavesNoGoroutine(t *testing.T) {
	const p = 4
	e := newEngine(t, core.Options{Workers: p})
	streamOracle(t, e, graphs.LU(4), 16) // prime the runtime before baselining
	before := goroutineBaseline()
	check := func(what string) {
		t.Helper()
		if after := settleGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines, %d before OpenSession", what, after, before)
		}
	}
	open := func(timeout time.Duration) *core.Session {
		t.Helper()
		ss, err := e.OpenSession(1, timeout)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	// Task 1 (worker 1) waits on task 0 (worker 0), whose body k runs.
	window := func(k stf.Kernel) core.WindowRun {
		return core.WindowRun{
			Tasks:   []stf.Task{{ID: 0, Accesses: []stf.Access{stf.W(0)}}, {ID: 1, Accesses: []stf.Access{stf.RW(0)}}},
			Kernel:  k,
			Touched: []stf.DataID{0},
		}
	}
	noop := func(*stf.Task, stf.WorkerID) {}

	ss := open(0)
	if err := ss.Flush(window(noop)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Drain(); err != nil {
		t.Fatal(err)
	}
	check("an open session after Flush and Drain")
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	ss = open(0)
	for i := 0; i < 200; i++ {
		if err := ss.Flush(window(noop)); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	check("200 windows and Close")

	ss = open(5 * time.Millisecond)
	if err := ss.Flush(window(func(*stf.Task, stf.WorkerID) { time.Sleep(50 * time.Millisecond) })); err != nil {
		t.Fatal(err)
	}
	err := ss.Close()
	var stall *stf.StallError
	blocked := stf.StalledWorker{Worker: 1, Task: 1, Data: 0, Mode: stf.RW(0).Mode}
	if err == nil || !strings.Contains(err.Error(), "timeout") || !errors.As(err, &stall) ||
		len(stall.Stalled) != 1 || stall.Stalled[0] != blocked {
		t.Fatalf("timed-out window: Close returned %v, want a timeout naming %+v", err, blocked)
	}
	check("a timed-out window and Close")

	ss = open(0)
	if err := ss.Flush(window(func(*stf.Task, stf.WorkerID) { panic("boom") })); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking window: Close returned %v", err)
	}
	check("a panicking window and Close")

	streamOracle(t, e, graphs.RandomDeps(300, 24, 3, 1, 7), 32)
}

// TestNarrowRunsLeaveNoGoroutine: the caller replays worker 0 of a run, so
// a run's goroutines are its other w−1 workers and the cancel callback.
// Runs alternating width 1 and width p — clean ones, ones whose body
// panics on worker 0 (the caller's stack) and ones canceled while the
// caller is inside a body — leave the goroutine count where it was, and
// the engine's next run still matches the oracle.
func TestNarrowRunsLeaveNoGoroutine(t *testing.T) {
	const p = 3
	chain := graphs.Chain(200) // task i writes data i, reads data i-1
	e := newEngine(t, core.Options{Workers: p})
	programs := []*stf.CompiledProgram{compile(t, chain, sched.Cyclic(1), 1, nil), compile(t, chain, sched.Cyclic(p), p, nil)}
	noop := func(*stf.Task, stf.WorkerID) {}
	for _, cp := range programs { // prime the runtime before baselining
		if err := e.RunCompiled(cp, noop); err != nil {
			t.Fatal(err)
		}
	}
	before := goroutineBaseline()

	for i := 0; i < 10; i++ {
		for _, cp := range programs {
			w := cp.Workers
			if err := e.RunCompiled(cp, noop); err != nil {
				t.Fatalf("width %d: %v", w, err)
			}

			// Task 3 is worker 0's at either width; at width p the other
			// workers are blocked on its data when it panics.
			err := e.RunCompiled(cp, func(tk *stf.Task, _ stf.WorkerID) {
				if tk.ID == 3 {
					panic("boom")
				}
			})
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("width %d, panicking body on worker 0: %v", w, err)
			}

			// Task 0 is worker 0's: the caller cancels from inside its body.
			ctx, cancel := context.WithCancel(context.Background())
			err = e.RunCompiledContext(ctx, cp, func(tk *stf.Task, _ stf.WorkerID) {
				if tk.ID == 0 {
					cancel()
				}
				time.Sleep(200 * time.Microsecond)
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("width %d, canceled from worker 0's body: %v", w, err)
			}
			if n := e.Progress().Executed(); n == int64(len(chain.Tasks)) {
				t.Errorf("width %d: a run canceled at its first task executed all %d", w, n)
			}
		}
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines grew from %d to %d across runs of width 1 and %d", before, after, p)
	}
	for _, cp := range programs {
		if err := enginetest.CheckCompiled(e, chain, cp); err != nil {
			t.Errorf("width %d after the failed runs: %v", cp.Workers, err)
		}
	}
}
