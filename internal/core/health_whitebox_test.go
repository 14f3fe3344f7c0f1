package core

import (
	"errors"
	"testing"
	"time"

	"rio/internal/stf"
)

// The watchdog dates worker states with the monotonic stamp of its own
// ticks, so the ages it reports are real durations: never negative, never
// longer than the run — which a date taken from the wall clock cannot
// promise across a step of the system time. A test cannot step the clock;
// what it can pin is that every For of a real StallError lies inside the
// test's own elapsed time.
func TestWatchdogPhaseAgesAreMonotonic(t *testing.T) {
	start := time.Now()

	// Two tasks on two workers, the second updating what the first writes;
	// worker 0 drops its own task 0, so worker 1 waits for a write nobody
	// performs and worker 0 finishes: a deadlock the watchdog must call.
	e, err := New(Options{Workers: 2, StallTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g := stf.NewGraph("deadlock", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.RW(0))
	noop := func(*stf.Task, stf.WorkerID) {}
	err = e.Run(g.NumData, func(s stf.Submitter) {
		for i := range g.Tasks {
			if s.Worker() == 0 && i == 0 {
				continue
			}
			s.SubmitTask(&g.Tasks[i], noop)
		}
	})
	elapsed := time.Since(start)

	var st *stf.StallError
	if !errors.As(err, &st) {
		t.Fatalf("deadlocked run returned %v, want a StallError", err)
	}
	if st.Kind != stf.Deadlock || len(st.Stalled) != 1 || st.Stalled[0].Task != 1 {
		t.Fatalf("StallError = %v, want a deadlock with worker 1 stalled on task 1", st)
	}
	for _, sw := range st.Stalled {
		if sw.For < 0 || sw.For > elapsed {
			t.Errorf("worker %d stalled for %v, want within [0, %v]", sw.Worker, sw.For, elapsed)
		}
	}
	for _, bw := range st.Busy {
		if bw.For < 0 || bw.For > elapsed {
			t.Errorf("worker %d busy for %v, want within [0, %v]", bw.Worker, bw.For, elapsed)
		}
	}
}
