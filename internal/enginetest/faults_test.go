package enginetest_test

import (
	"context"
	"errors"
	"runtime"
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

// TestFaultPanic: a panicking body fails the run with an error that names
// the panic, and the run leaves no goroutine behind. Beyond the engines of
// faultEngines (closure replay), two rows take the in-order engine's other
// ways to a body: compiled replay through RunGraph, and a steal-armed
// engine, where every task of a one-owner mapping is up for stealing and
// the panic may unwind a thief's exec.
func TestFaultPanic(t *testing.T) {
	g := graphs.Chain(50)
	type row struct {
		name string
		run  func(t *testing.T, kern stf.Kernel) error
	}
	var rows []row
	for _, spec := range faultEngines() {
		rows = append(rows, row{spec.name, func(t *testing.T, kern stf.Kernel) error {
			return mustEngine(t, spec.opts).Run(g.NumData, rio.Replay(g, kern))
		}})
	}
	rows = append(rows,
		row{"rio-compiled", func(t *testing.T, kern stf.Kernel) error {
			eng, err := rio.NewEngine(rio.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return eng.RunGraph(g, kern)
		}},
		row{"rio-steal", func(t *testing.T, kern stf.Kernel) error {
			ind := graphs.Independent(64)
			rt := mustEngine(t, rio.Options{Workers: 4, Steal: &rio.StealPolicy{},
				Mapping: func(rio.TaskID) rio.WorkerID { return 0 }})
			return rt.Run(ind.NumData, rio.Replay(ind, func(tk *stf.Task, w stf.WorkerID) {
				time.Sleep(50 * time.Microsecond) // slow enough for the thieves to steal
				kern(tk, w)
			}))
		}},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := r.run(t, faultinject.PanicAt(noop, 7))
			if err == nil {
				t.Fatal("injected panic returned nil error")
			}
			if !strings.Contains(err.Error(), "panic") {
				t.Fatalf("error does not mention the panic: %v", err)
			}
			after := runtime.NumGoroutine()
			for i := 0; i < 200 && after > before; i++ {
				time.Sleep(10 * time.Millisecond) // goroutine exits are asynchronous
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Errorf("%d goroutines after the failed run, %d before", after, before)
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

// TestFaultDeadlineDiagnosis injects the fault the paper's determinism
// assumption warns about: one worker's replay silently drops a task it
// owns, so the task never executes and every worker ends up blocked in a
// dependency wait. Nothing stops such a run but its context: once the
// deadline does, the error must name every worker blocked in a wait, with
// the task and datum it waited on.
func TestFaultDeadlineDiagnosis(t *testing.T) {
	g := graphs.Chain(64)
	for _, workers := range []int{2, 4} {
		t.Run(rio.InOrder.String()+"-"+itoa(workers)+"w", func(t *testing.T) {
			rt := mustEngine(t, rio.Options{Model: rio.InOrder, Workers: workers})
			// Task 1 is owned by worker 1 under the cyclic mapping; worker
			// 1's replay drops it, so nobody executes it.
			prog := faultinject.DropTaskAt(g, noop, 1, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := rt.RunContext(ctx, g.NumData, prog)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadlocked run returned %v, want a deadline error", err)
			}
			var st *rio.StallError
			if !errors.As(err, &st) {
				t.Fatalf("error is not a StallError: %v", err)
			}
			if len(st.Stalled) != workers {
				t.Fatalf("StallError names %d blocked workers, want all %d: %v", len(st.Stalled), workers, err)
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
				t.Errorf("the deadline took %v to stop the run", d)
			}
		})
	}
}

// TestFaultDeadlineDiagnosisDivergence: worker 1's replay diverges early
// without blocking (an extra read of an otherwise untouched datum at task
// 5) and deadlocks later (it sees task 300, worker 0's write, as a read, so
// its own task 301 waits for a read nobody performs). Both workers pass the
// guard's first checkpoint before they block, so the StallError of the run
// Options.Timeout stops carries the divergence the checkpoints prove.
func TestFaultDeadlineDiagnosisDivergence(t *testing.T) {
	const n = 400
	rt := mustEngine(t, rio.Options{Model: rio.InOrder, Workers: 2, Timeout: 50 * time.Millisecond})
	err := rt.Run(2, func(s stf.Submitter) {
		for i := 0; i < n; i++ {
			acc := []stf.Access{stf.RW(0)}
			if s.Worker() == 1 && i == 5 {
				acc = append(acc, stf.R(1))
			}
			if s.Worker() == 1 && i == 300 {
				acc = []stf.Access{stf.R(0)}
			}
			s.Submit(func() {}, acc...)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlocked run returned %v, want a deadline error", err)
	}
	var st *rio.StallError
	if !errors.As(err, &st) || len(st.Stalled) != 2 {
		t.Fatalf("error does not name both blocked workers: %v", err)
	}
	if st.Divergence == nil || st.Divergence.Window != [2]rio.TaskID{0, 256} {
		t.Fatalf("StallError divergence = %v, want one in tasks [0,256): %v", st.Divergence, err)
	}
}

// TestFaultPanicStopsSuccessors: task 0 panics after writing datum 0 and
// task 1 reads it. On every engine the run fails with the panic, the
// panicking task does not count as executed, and task 1's body never runs
// over the data task 0 left.
func TestFaultPanicStopsSuccessors(t *testing.T) {
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			rt := mustEngine(t, spec.opts)
			var datum atomic.Int64
			var ran atomic.Bool
			err := rt.Run(1, func(s stf.Submitter) {
				s.Submit(func() {
					datum.Store(1)
					panic("boom")
				}, stf.W(0))
				s.Submit(func() { ran.Store(true) }, stf.R(0))
			})
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("run returned %v, want an error naming the panic", err)
			}
			if n := rt.Progress().Executed(); n != 0 {
				t.Errorf("Progress().Executed() = %d after the only other task's predecessor panicked, want 0", n)
			}
			if ran.Load() {
				t.Error("task 1 ran over the data of the task that panicked")
			}
		})
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
