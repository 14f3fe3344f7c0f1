package core_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rio/internal/core"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// settleGoroutines polls the goroutine count until it drops to the
// baseline (goroutine exits are asynchronous — a just-finished run's
// monitor may still be unwinding) or a deadline passes.
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

// TestWatchdogNoGoroutineLeak audits the stall watchdog's supervision
// machinery (monitor goroutine + ticker, the context.AfterFunc cancel
// callback): N runs that complete far below the stall threshold, and N runs
// canceled mid-dependency-wait, must leave the goroutine count where it
// started. (Audited: the monitor exits via the run's done channel with its
// ticker stopped by defer, its final send cannot block because the stalled
// channel is buffered, and the run joins both before it returns — this
// test pins that no future change regresses it.)
func TestWatchdogNoGoroutineLeak(t *testing.T) {
	g := graphs.LU(4)
	kern := func(*stf.Task, stf.WorkerID) {}
	e := newEngine(t, core.Options{Workers: 3, Mapping: sched.Cyclic(3), StallTimeout: time.Minute})

	// Prime the runtime (timer wheels, test plumbing) before baselining.
	if err := e.Run(g.NumData, stf.Replay(g, kern)); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(0)
	before := runtime.NumGoroutine()

	// Early completion: each run arms the watchdog and finishes far below
	// the threshold, so the monitor must exit with the run, not with the
	// ticker.
	for i := 0; i < 30; i++ {
		if err := e.Run(g.NumData, stf.Replay(g, kern)); err != nil {
			t.Fatal(err)
		}
	}

	// Cancellation mid-wait: workers blocked in dependency waits unwind
	// through the abort flag; monitor and cancel callback must follow.
	chain := graphs.Chain(200)
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		k := func(tk *stf.Task, _ stf.WorkerID) {
			if tk.ID == 0 {
				close(started)
			}
			time.Sleep(200 * time.Microsecond)
		}
		canceled := make(chan struct{})
		go func() {
			<-started
			cancel()
			close(canceled)
		}()
		if err := e.RunContext(ctx, chain.NumData, stf.Replay(chain, k)); err == nil {
			t.Fatal("canceled run returned nil error")
		}
		<-canceled
	}

	// A couple of goroutines of slack: unrelated runtime internals
	// (timer maintenance) may come and go.
	after := settleGoroutines(before)
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d across %d watchdog-armed runs (monitor/timer leak)", before, after, 41)
	}
}
