package enginetest_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rio"
	"rio/internal/enginetest"
	"rio/internal/faultinject"
	"rio/internal/graphs"
	"rio/internal/stf"
)

// The fault matrix: every engine against every fault class from
// internal/faultinject. Every case must return a descriptive error (or
// demonstrably survive the fault) — never hang; the package-level test
// timeout is the backstop, the assertions below are the specification.

type engineSpec struct {
	name string
	opts rio.Options
}

func faultEngines() []engineSpec {
	return []engineSpec{
		{"rio-2w", rio.Options{Model: rio.InOrder, Workers: 2}},
		{"rio-4w", rio.Options{Model: rio.InOrder, Workers: 4}},
		{"centralized-fifo", rio.Options{Model: rio.Centralized, Workers: 3}},
		{"sequential", rio.Options{Model: rio.Sequential, Workers: 1}},
	}
}

func mustEngine(t *testing.T, opts rio.Options) rio.Runtime {
	t.Helper()
	rt, err := rio.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func noop(*stf.Task, stf.WorkerID) {}

// sleepKernel burns d of wall time per task, so a run stays in flight long
// enough for an external event (cancellation, deadline) to land mid-run.
func sleepKernel(d time.Duration) stf.Kernel {
	return func(*stf.Task, stf.WorkerID) { time.Sleep(d) }
}

func TestFaultPanic(t *testing.T) {
	g := graphs.Chain(50)
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			rt := mustEngine(t, spec.opts)
			kern := faultinject.PanicAt(noop, 7)
			err := rt.Run(g.NumData, rio.Replay(g, kern))
			if err == nil {
				t.Fatal("injected panic returned nil error")
			}
			if !strings.Contains(err.Error(), "panic") {
				t.Fatalf("error does not mention the panic: %v", err)
			}
		})
	}
}

func TestFaultCancelMidRun(t *testing.T) {
	g := graphs.Chain(400)
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			rt := mustEngine(t, spec.opts)
			started := make(chan struct{})
			var once sync.Once
			kern := func(tk *stf.Task, w stf.WorkerID) {
				if tk.ID == 0 {
					once.Do(func() { close(started) })
				}
				time.Sleep(500 * time.Microsecond)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-started
				cancel()
			}()
			err := rt.RunContext(ctx, g.NumData, rio.Replay(g, kern))
			if err == nil {
				t.Fatal("canceled run returned nil error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not wrap context.Canceled: %v", err)
			}
		})
	}
}

func TestFaultDeadlineExpiry(t *testing.T) {
	g := graphs.Chain(400)
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			opts := spec.opts
			opts.Timeout = 30 * time.Millisecond
			rt := mustEngine(t, opts)
			// The chain serializes everything: ~400ms of task time against
			// a 30ms budget, under plain Run (the Options.Timeout path).
			err := rt.Run(g.NumData, rio.Replay(g, sleepKernel(time.Millisecond)))
			if err == nil {
				t.Fatal("run past its deadline returned nil error")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error does not wrap context.DeadlineExceeded: %v", err)
			}
		})
	}
}

// TestFaultWatchdogDeadlock injects the fault the paper's determinism
// assumption warns about: one worker's replay silently drops a task it
// owns, so the task never executes and every worker ends up blocked in a
// dependency wait. Without the watchdog this hangs forever; with it the
// run must abort with a StallError naming the stuck tasks and data.
func TestFaultWatchdogDeadlock(t *testing.T) {
	g := graphs.Chain(64)
	for _, workers := range []int{2, 4} {
		t.Run(rio.InOrder.String()+"-"+itoa(workers)+"w", func(t *testing.T) {
			rt := mustEngine(t, rio.Options{
				Model:        rio.InOrder,
				Workers:      workers,
				StallTimeout: 50 * time.Millisecond,
			})
			// Task 1 is owned by worker 1 under the cyclic mapping; worker
			// 1's replay drops it, so nobody executes it.
			prog := faultinject.DropTaskAt(g, noop, 1, 1)
			start := time.Now()
			err := rt.Run(g.NumData, prog)
			if err == nil {
				t.Fatal("divergent replay deadlock returned nil error")
			}
			var st *rio.StallError
			if !errors.As(err, &st) {
				t.Fatalf("error is not a StallError: %v", err)
			}
			if st.Kind != rio.Deadlock {
				t.Fatalf("StallError kind = %v, want Deadlock (err: %v)", st.Kind, err)
			}
			if len(st.Stalled) == 0 {
				t.Fatalf("StallError names no stalled workers: %v", err)
			}
			for _, sw := range st.Stalled {
				if sw.Data != 0 {
					t.Errorf("stalled worker %d blocked on data %d, want 0", sw.Worker, sw.Data)
				}
				if sw.Task < 2 {
					t.Errorf("stalled worker %d blocked on task %d, want a task after the dropped one", sw.Worker, sw.Task)
				}
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("deadlock detection took %v", d)
			}
		})
	}
}

// TestFaultWatchdogStuckTask wedges one task body forever: the watchdog
// must classify the stall as a stuck task (not a deadlock), name the task,
// and abandon the run instead of blocking RunContext forever.
func TestFaultWatchdogStuckTask(t *testing.T) {
	g := graphs.Chain(32)
	rt := mustEngine(t, rio.Options{
		Model:        rio.InOrder,
		Workers:      2,
		StallTimeout: 50 * time.Millisecond,
	})
	release := make(chan struct{})
	defer close(release) // let the wedged goroutine exit after the test
	kern := faultinject.HangAt(noop, 2, release)
	err := rt.Run(g.NumData, rio.Replay(g, kern))
	if err == nil {
		t.Fatal("never-terminating task returned nil error")
	}
	var st *rio.StallError
	if !errors.As(err, &st) {
		t.Fatalf("error is not a StallError: %v", err)
	}
	if st.Kind != rio.StuckTask {
		t.Fatalf("StallError kind = %v, want StuckTask (err: %v)", st.Kind, err)
	}
	found := false
	for _, bw := range st.Busy {
		if bw.Task == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("StallError does not name the wedged task 2: %v", err)
	}
}

// TestFaultStragglerBelowThreshold: a slow task under the watchdog
// threshold is imbalance, not a stall — the run must complete cleanly.
func TestFaultStragglerBelowThreshold(t *testing.T) {
	g := graphs.Independent(64)
	rt := mustEngine(t, rio.Options{
		Model:        rio.InOrder,
		Workers:      4,
		StallTimeout: 400 * time.Millisecond,
	})
	kern := faultinject.DelayAt(noop, 3, 60*time.Millisecond)
	if err := rt.Run(g.NumData, rio.Replay(g, kern)); err != nil {
		t.Fatalf("sub-threshold straggler tripped the watchdog: %v", err)
	}
}

func TestFaultOutOfRangeMapping(t *testing.T) {
	g := graphs.Chain(16)
	t.Run("rio", func(t *testing.T) {
		// The in-order engine must reject the mapping as a protocol
		// violation and unwind every worker.
		rt := mustEngine(t, rio.Options{
			Model:   rio.InOrder,
			Workers: 2,
			Mapping: faultinject.OutOfRange(rio.CyclicMapping(2), 3),
		})
		err := rt.Run(g.NumData, rio.Replay(g, noop))
		if err == nil {
			t.Fatal("out-of-range mapping returned nil error")
		}
		if !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("error does not mention the range violation: %v", err)
		}
	})
	t.Run("centralized", func(t *testing.T) {
		// The centralized engine ignores the mapping: its master hands
		// every ready task to whichever executor is free, so an
		// out-of-range mapping must not affect the run.
		rt := mustEngine(t, rio.Options{
			Model:   rio.Centralized,
			Workers: 3,
			Mapping: faultinject.OutOfRange(rio.CyclicMapping(2), 3),
		})
		if err := enginetest.Check(rt, g); err != nil {
			t.Fatalf("out-of-range mapping broke the centralized engine: %v", err)
		}
		if got := rt.Progress().Executed(); got != int64(len(g.Tasks)) {
			t.Fatalf("executed %d tasks, want %d", got, len(g.Tasks))
		}
	})
}

// TestFaultDivergenceCompletes injects a replay divergence that does NOT
// deadlock (one worker sees an extra read of an otherwise-untouched data
// object): the run completes and the divergence guard must report it
// instead of silently accepting corrupted bookkeeping.
func TestFaultDivergenceCompletes(t *testing.T) {
	g := stf.NewGraph("div", 2)
	for i := 0; i < 40; i++ {
		g.Add(0, i, 0, 0, stf.RW(0))
	}
	for _, workers := range []int{2, 4} {
		t.Run(itoa(workers)+"w", func(t *testing.T) {
			rt := mustEngine(t, rio.Options{Model: rio.InOrder, Workers: workers})
			prog := faultinject.ExtraAccessAt(g, noop, 1, 5, stf.R(1))
			err := rt.Run(g.NumData, prog)
			if err == nil {
				t.Fatal("divergent replay returned nil error")
			}
			var div *rio.DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("error is not a DivergenceError: %v", err)
			}
		})
	}
	t.Run("NoGuard", func(t *testing.T) {
		// Opting out must restore the old behavior: the run completes
		// without an error (the caller has accepted the risk).
		rt := mustEngine(t, rio.Options{Model: rio.InOrder, Workers: 2, NoGuard: true})
		prog := faultinject.ExtraAccessAt(g, noop, 1, 5, stf.R(1))
		if err := rt.Run(g.NumData, prog); err != nil {
			t.Fatalf("NoGuard run reported: %v", err)
		}
	})
}

// TestFaultDivergenceAccessOrder: one worker replays task 5's accesses in
// reverse order — same access *set*, same IDs, same modes. The per-data
// protocol bookkeeping is order-insensitive on data nothing else
// synchronizes on, so the run completes; the divergence guard's stream
// hash must still tell the replays apart ([R(x),W(y)] vs [W(y),R(x)]).
func TestFaultDivergenceAccessOrder(t *testing.T) {
	g := stf.NewGraph("div-order", 3)
	for i := 0; i < 40; i++ {
		if i == 5 {
			// The reorder target: two extra reads of data nobody else
			// touches, so both orders execute identically.
			g.Add(0, i, 0, 0, stf.RW(0), stf.R(1), stf.R(2))
			continue
		}
		g.Add(0, i, 0, 0, stf.RW(0))
	}
	rt := mustEngine(t, rio.Options{Model: rio.InOrder, Workers: 2})
	err := rt.Run(g.NumData, faultinject.ReorderAccessesAt(g, noop, 1, 5))
	if err == nil {
		t.Fatal("order-divergent replay returned nil error")
	}
	var div *rio.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("error is not a DivergenceError: %v", err)
	}
}

// TestFaultDivergenceAccessMode: one worker replays task 5's extra access
// with a different mode (R vs RW, and R vs Red) on data nothing else
// synchronizes on — the run completes and only a mode-sensitive guard
// hash can catch it.
func TestFaultDivergenceAccessMode(t *testing.T) {
	g := stf.NewGraph("div-mode", 2)
	for i := 0; i < 40; i++ {
		if i == 5 {
			g.Add(0, i, 0, 0, stf.RW(0), stf.R(1))
			continue
		}
		g.Add(0, i, 0, 0, stf.RW(0))
	}
	for _, tc := range []struct {
		name string
		mode stf.AccessMode
	}{
		{"R-vs-RW", stf.RW(1).Mode},
		{"R-vs-Red", stf.Red(1).Mode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := mustEngine(t, rio.Options{Model: rio.InOrder, Workers: 2})
			err := rt.Run(g.NumData, faultinject.ChangeModeAt(g, noop, 1, 5, 1, tc.mode))
			if err == nil {
				t.Fatal("mode-divergent replay returned nil error")
			}
			var div *rio.DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("error is not a DivergenceError: %v", err)
			}
		})
	}
}

// TestFaultGuardAcceptsCleanRuns: the guard must stay silent on correct
// programs (this is the false-positive control for the whole guard).
func TestFaultGuardAcceptsCleanRuns(t *testing.T) {
	for _, g := range []*stf.Graph{graphs.Chain(100), graphs.LU(5), graphs.RandomDeps(200, 16, 2, 1, 3)} {
		rt := mustEngine(t, rio.Options{Model: rio.InOrder, Workers: 4})
		if err := enginetest.Check(rt, g); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// --- Transient-fault retry matrix -----------------------------------------
//
// Every engine against the transient-fault injectors of internal/faultinject
// with a retry policy installed: a fault that clears within the attempt
// budget must leave the run indistinguishable from a fault-free one (same
// final values as the sequential reference), and an exhausted budget must
// surface as a *rio.TaskFailure wrapped in a *rio.PartialError whose
// completed set is dependency-closed.

// snapshotVals adapts an oracle trace's value array into a Snapshotter:
// rollback restores the written objects' pre-attempt values. Snapshot is
// only ever called by the worker holding write access to d, so the
// unsynchronized copy is race-free by the STF discipline itself.
func snapshotVals(tr *enginetest.Trace) stf.Snapshotter {
	return stf.SnapshotFuncs{Save: func(d stf.DataID) func() {
		v := tr.Vals[d]
		return func() { tr.Vals[d] = v }
	}}
}

func TestFaultRetryToSuccess(t *testing.T) {
	g := graphs.LURect(3, 3)
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	const failID, failures = 7, 2
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			tr := enginetest.NewTrace(g)
			var clock atomic.Int64
			var mu sync.Mutex
			var retries []int
			opts := spec.opts
			opts.Fault.Retry = &rio.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond}
			opts.Fault.Snapshots = snapshotVals(tr)
			opts.Hooks = &rio.Hooks{OnTaskRetry: func(_ stf.WorkerID, id stf.TaskID, attempt int, _ any) {
				mu.Lock()
				defer mu.Unlock()
				if id != failID {
					t.Errorf("OnTaskRetry for unexpected task %d", id)
				}
				retries = append(retries, attempt)
			}}
			rt := mustEngine(t, opts)
			kern := faultinject.FailNTimes(enginetest.Kernel(tr, &clock), failID, failures)
			if err := rt.Run(g.NumData, stf.Replay(g, kern)); err != nil {
				t.Fatalf("run with transient fault failed: %v", err)
			}
			if err := enginetest.Compare(g, want, tr); err != nil {
				t.Error(err)
			}
			if p := rt.Progress(); p.Retried() != failures {
				t.Errorf("Progress().Retried() = %d, want %d", p.Retried(), failures)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(retries) != failures || retries[0] != 1 || retries[1] != 2 {
				t.Errorf("OnTaskRetry attempts = %v, want [1 2]", retries)
			}
		})
	}
}

// A fault that dirties the write-set before failing makes rollback
// load-bearing: without the snapshot restore, the retried body would
// re-execute over corrupted values and the oracle comparison would fail.
func TestFaultRetryRollsBackWriteSet(t *testing.T) {
	g := stf.NewGraph("rollback", 2)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.RW(0), stf.W(1))
	g.Add(0, 2, 0, 0, stf.R(0), stf.RW(1))
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			tr := enginetest.NewTrace(g)
			var clock atomic.Int64
			opts := spec.opts
			opts.Fault.Retry = &rio.RetryPolicy{MaxAttempts: 3}
			opts.Fault.Snapshots = snapshotVals(tr)
			rt := mustEngine(t, opts)
			kern := faultinject.CorruptThenFail(enginetest.Kernel(tr, &clock), 1, 2, func() {
				tr.Vals[0] = 0xDEAD // dirty task 1's write-set mid-body
				tr.Vals[1] = 0xBEEF
			})
			if err := rt.Run(g.NumData, stf.Replay(g, kern)); err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if err := enginetest.Compare(g, want, tr); err != nil {
				t.Errorf("write-set rollback did not restore pre-attempt values: %v", err)
			}
		})
	}
}

func TestFaultRetriesExhausted(t *testing.T) {
	g := graphs.LURect(3, 3)
	const failID = 7
	deps := g.Dependencies()
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			tr := enginetest.NewTrace(g)
			var clock atomic.Int64
			opts := spec.opts
			opts.Fault.Retry = &rio.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
			opts.Fault.Snapshots = snapshotVals(tr)
			rt := mustEngine(t, opts)
			kern := faultinject.PanicAt(enginetest.Kernel(tr, &clock), failID)
			err := rt.Run(g.NumData, stf.Replay(g, kern))
			if err == nil {
				t.Fatal("run survived a permanent fault")
			}
			var tf *rio.TaskFailure
			if !errors.As(err, &tf) {
				t.Fatalf("error %v does not wrap a TaskFailure", err)
			}
			if tf.Task != failID || tf.Attempts != 3 {
				t.Errorf("TaskFailure = task %d after %d attempts, want task %d after 3", tf.Task, tf.Attempts, failID)
			}
			var pe *rio.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v does not wrap a PartialError", err)
			}
			completed := make(map[stf.TaskID]bool, len(pe.Result.Completed))
			for _, id := range pe.Result.Completed {
				completed[id] = true
			}
			if completed[failID] {
				t.Error("failed task listed as completed")
			}
			if len(pe.Result.Failed) != 1 || pe.Result.Failed[0] != failID {
				t.Errorf("Failed = %v, want [%d]", pe.Result.Failed, failID)
			}
			// The frontier must be dependency-closed: every predecessor of
			// a completed task is itself completed.
			for _, id := range pe.Result.Completed {
				for _, p := range deps[id] {
					if !completed[p] {
						t.Errorf("completed task %d has uncompleted predecessor %d", id, p)
					}
				}
			}
		})
	}
}

// Backoff sleeps must read as liveness to the stall watchdog: a retrying
// task re-stamps its heartbeat across every backoff slice, so a backoff
// longer than StallTimeout must NOT abort the run as a stuck task.
func TestFaultRetryBackoffKeepsWatchdogQuiet(t *testing.T) {
	g := graphs.Chain(10)
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	const failID, failures = 5, 2
	tr := enginetest.NewTrace(g)
	var clock atomic.Int64
	rt := mustEngine(t, rio.Options{
		Model: rio.InOrder, Workers: 2,
		StallTimeout: 50 * time.Millisecond,
		Fault: rio.FaultOptions{
			Retry:     &rio.RetryPolicy{MaxAttempts: 4, Backoff: 150 * time.Millisecond},
			Snapshots: snapshotVals(tr),
		},
	})
	kern := faultinject.FailNTimes(enginetest.Kernel(tr, &clock), failID, failures)
	start := time.Now()
	err = rt.Run(g.NumData, stf.Replay(g, kern))
	elapsed := time.Since(start)
	var se *rio.StallError
	if errors.As(err, &se) {
		t.Fatalf("watchdog fired during retry backoff: %v", se)
	}
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	// Delay(2)+Delay(3) = 150ms+300ms of backoff actually slept.
	if elapsed < 300*time.Millisecond {
		t.Errorf("run took %v; backoff apparently not applied", elapsed)
	}
	if err := enginetest.Compare(g, want, tr); err != nil {
		t.Error(err)
	}
}

// A whole-flow storm of deterministic first-attempt failures — the chaos
// scenario of the CI fault matrix. With retry installed the run must be
// indistinguishable from a fault-free one on every engine.
func TestFaultChaosStorm(t *testing.T) {
	g := graphs.LURect(3, 3)
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			tr := enginetest.NewTrace(g)
			var clock atomic.Int64
			opts := spec.opts
			opts.Fault.Retry = &rio.RetryPolicy{MaxAttempts: 3}
			opts.Fault.Snapshots = snapshotVals(tr)
			rt := mustEngine(t, opts)
			kern := faultinject.Flaky(enginetest.Kernel(tr, &clock), 42, 0.4)
			if err := rt.Run(g.NumData, stf.Replay(g, kern)); err != nil {
				t.Fatalf("chaos run failed: %v", err)
			}
			if err := enginetest.Compare(g, want, tr); err != nil {
				t.Error(err)
			}
			if p := rt.Progress(); p.Retried() == 0 {
				t.Error("chaos storm triggered no retries (injector inert?)")
			}
		})
	}
}
