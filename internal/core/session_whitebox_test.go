package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rio/internal/sched"
	"rio/internal/stf"
)

// TestSessionParkedWindows pushes many small windows through one streaming
// session whose waits park right after a short spin phase, so dependency
// waits park on the per-data gates in every window and the join between
// windows recycles the gates right behind them. It runs both window forms:
// compiled streams interpreted against the task table, and the task table
// replayed through the closure protocol path. What it proves, under -race:
//
//   - recycling never resurrects a stale wakeup: a task that ran on a
//     wakeup left over from a previous window would read its data before
//     the predecessor in the current window wrote it, and the in-task
//     oracle check trips;
//   - every window matches the sequential oracle: the first task of window
//     k+1 on each datum validates the final value window k left there;
//   - the gate is really parked on: every window's first task holds its
//     write until worker 1, whose first task reads-writes the same datum,
//     is registered on that datum's gate.
//
// Consecutive tasks on a datum alternate owners (cyclic mapping), so every
// hand-off is a cross-worker dependency.
func TestSessionParkedWindows(t *testing.T) {
	const (
		numData = 4
		workers = 4
		chain   = 6 // RW tasks per datum per window -> 5 cross-worker hand-offs each
	)
	windows := 500
	if testing.Short() {
		windows = 100
	}
	m := sched.Cyclic(workers)
	g := stf.NewGraph("session-chains", numData)
	for d := 0; d < numData; d++ {
		for c := 0; c < chain; c++ {
			g.Add(0, d, c, 0, stf.RW(stf.DataID(d)))
		}
	}
	cp, err := stf.Compile(g, m, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	touched := make([]stf.DataID, numData)
	for d := range touched {
		touched[d] = stf.DataID(d)
	}
	for _, compiled := range []*stf.CompiledProgram{cp, nil} {
		name := "compiled"
		if compiled == nil {
			name = "closure"
		}
		t.Run(name, func(t *testing.T) {
			e, err := New(Options{Workers: workers, Mapping: m})
			if err != nil {
				t.Fatal(err)
			}
			SetWaitLimits(e, 1, 0)
			// A window that hangs (a lost wake, a stale counter) aborts and
			// fails the test instead of stalling it.
			ss, err := e.OpenSession(numData, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]int64, numData)   // data the windows' tasks update
			oracle := make([]int64, numData) // producer-side sequential model
			var mismatches, parked atomic.Int64
			report := func(msg string) {
				if mismatches.Add(1) <= 5 {
					t.Error(msg)
				}
			}
			for w := 0; w < windows; w++ {
				carried := [numData]int64(oracle)
				step := int64(w&7) + 1
				kern := func(tk *stf.Task, _ stf.WorkerID) {
					d, c := int(tk.ID)/chain, int(tk.ID)%chain
					if c > 0 {
						vals[d] += int64(c * (d + 1))
						return
					}
					// Wait for the park only while every earlier window saw
					// one: a wait that never parks fails once, not per window.
					if tk.ID == 0 && parked.Load() == int64(w) && parksBy(&ss.st.shared[0], 10*time.Second) {
						parked.Add(1)
					}
					if vals[d] != carried[d] {
						report(fmt.Sprintf("window %d, data %d: got %d, want %d", w, d, vals[d], carried[d]))
					}
					vals[d] = vals[d]*3 + step
				}
				for d := range oracle {
					oracle[d] = oracle[d]*3 + step
					for c := 1; c < chain; c++ {
						oracle[d] += int64(c * (d + 1))
					}
				}
				if err := ss.Flush(WindowRun{Tasks: g.Tasks, Kernel: kern, Compiled: compiled, Touched: touched}); err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			for d := range vals {
				if vals[d] != oracle[d] {
					t.Errorf("final data %d: got %d, want %d", d, vals[d], oracle[d])
				}
			}
			if n := mismatches.Load(); n > 0 {
				t.Fatalf("%d window-boundary mismatches (stale wakeup or bad recycle)", n)
			}
			if n := parked.Load(); n != int64(windows) {
				t.Errorf("worker 1 parked on data 0's gate in %d of %d windows", n, windows)
			}
		})
	}
}

// parksBy polls until a worker is registered on sh's gate, for at most d,
// and reports whether one was.
func parksBy(sh *sharedState, d time.Duration) bool {
	for deadline := time.Now().Add(d); sh.waiters.Load() == 0; time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}
