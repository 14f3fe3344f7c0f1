package enginetest_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rio"
	"rio/internal/centralized"
	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sequential"
	"rio/internal/stf"
	"rio/internal/trace"
)

// Observability contract tests shared by every engine: the lifecycle
// hooks must fire in bracketed, paired order, and the always-on Progress
// counters must agree with the post-run Stats decomposition. Run under
// -race these also verify that hooks and Progress snapshots are safe
// against concurrently publishing workers.

// hookLog is a concurrency-safe hook recorder that checks the firing
// contract as it goes: run brackets around everything, task start/end
// paired and non-overlapping per worker, wait start/end paired, and every
// task and wait hook naming a worker below the width OnRunStart reported
// (a per-worker table sized by that width must hold it). A stream fires
// one bracket per window, so the log keeps, per closed bracket, the task
// starts it nested and the error OnRunEnd reported.
type hookLog struct {
	mu         sync.Mutex
	runStarts  int
	runEnds    int
	inRun      bool
	width      int                   // the open bracket's OnRunStart worker count
	runArgs    [][2]int              // OnRunStart's (workers, numData) for each bracket
	runTasks   []int                 // task starts nested in each closed bracket
	runErrs    []error               // OnRunEnd's error for each closed bracket
	named      map[stf.WorkerID]bool // workers the task and wait hooks named
	taskStarts map[stf.TaskID]int
	taskEnds   map[stf.TaskID]int
	waitStarts int
	waitEnds   int
	waitedOn   map[stf.TaskID][]stf.Access // OnWaitStart's accesses
	open       map[stf.WorkerID]stf.TaskID
	violations []string
}

func newHookLog() *hookLog {
	return &hookLog{
		taskStarts: map[stf.TaskID]int{},
		taskEnds:   map[stf.TaskID]int{},
		waitedOn:   map[stf.TaskID][]stf.Access{},
		open:       map[stf.WorkerID]stf.TaskID{},
		named:      map[stf.WorkerID]bool{},
	}
}

func (l *hookLog) violatef(format string, args ...any) {
	if len(l.violations) < 10 {
		l.violations = append(l.violations, fmt.Sprintf(format, args...))
	}
}

// name records that hook named worker w, which must be below the run's
// width (a sequential engine's stf.MasterWorker is).
func (l *hookLog) name(hook string, w stf.WorkerID) {
	l.named[w] = true
	if int(w) >= l.width {
		l.violatef("%s named worker %d in a run of %d workers", hook, w, l.width)
	}
}

func (l *hookLog) hooks() *stf.Hooks {
	return &stf.Hooks{
		OnRunStart: func(workers, numData int) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.runStarts++
			if l.inRun {
				l.violatef("OnRunStart inside an open run")
			}
			l.inRun = true
			l.width = workers
			l.runArgs = append(l.runArgs, [2]int{workers, numData})
			l.runTasks = append(l.runTasks, 0)
		},
		OnRunEnd: func(err error) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.runEnds++
			if !l.inRun {
				l.violatef("OnRunEnd without an open run")
			}
			l.inRun = false
			l.runErrs = append(l.runErrs, err)
			for w, id := range l.open {
				l.violatef("OnRunEnd with task %d still open on worker %d", id, w)
			}
		},
		OnTaskStart: func(w stf.WorkerID, id stf.TaskID) {
			l.mu.Lock()
			defer l.mu.Unlock()
			if !l.inRun {
				l.violatef("OnTaskStart(%d) outside OnRunStart/OnRunEnd", id)
			} else {
				l.runTasks[len(l.runTasks)-1]++
			}
			l.name("OnTaskStart", w)
			if prev, ok := l.open[w]; ok {
				l.violatef("worker %d started task %d while task %d is open", w, id, prev)
			}
			l.open[w] = id
			l.taskStarts[id]++
		},
		OnTaskEnd: func(w stf.WorkerID, id stf.TaskID) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.name("OnTaskEnd", w)
			if prev, ok := l.open[w]; !ok || prev != id {
				l.violatef("worker %d ended task %d without a matching start", w, id)
			}
			delete(l.open, w)
			l.taskEnds[id]++
		},
		OnWaitStart: func(w stf.WorkerID, id stf.TaskID, a stf.Access) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.name("OnWaitStart", w)
			l.waitStarts++
			l.waitedOn[id] = append(l.waitedOn[id], a)
		},
		OnWaitEnd: func(w stf.WorkerID, id stf.TaskID, a stf.Access) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.name("OnWaitEnd", w)
			l.waitEnds++
		},
	}
}

// check asserts the universal post-run invariants of runs clean runs of g:
// one bracket per run, each nesting the task hooks of all of g's tasks.
func (l *hookLog) check(t *testing.T, g *stf.Graph, runs int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, v := range l.violations {
		t.Errorf("hook contract: %s", v)
	}
	if l.runStarts != runs || l.runEnds != runs {
		t.Errorf("run hooks fired %d/%d times, want %d/%d", l.runStarts, l.runEnds, runs, runs)
	}
	for r, n := range l.runTasks {
		if n != len(g.Tasks) {
			t.Errorf("run %d: %d OnTaskStart calls inside its bracket, want %d", r, n, len(g.Tasks))
		}
	}
	for r, err := range l.runErrs {
		if err != nil {
			t.Errorf("run %d: OnRunEnd reported error: %v", r, err)
		}
	}
	for id := range g.Tasks {
		if n := l.taskStarts[stf.TaskID(id)]; n != runs {
			t.Errorf("task %d: %d OnTaskStart calls, want %d", id, n, runs)
		}
		if n := l.taskEnds[stf.TaskID(id)]; n != runs {
			t.Errorf("task %d: %d OnTaskEnd calls, want %d", id, n, runs)
		}
	}
	if len(l.taskStarts) != len(g.Tasks) {
		t.Errorf("OnTaskStart saw %d distinct tasks, graph has %d", len(l.taskStarts), len(g.Tasks))
	}
	if l.waitStarts != l.waitEnds {
		t.Errorf("unpaired wait hooks: %d starts, %d ends", l.waitStarts, l.waitEnds)
	}
	// A task's wait names an access it declared, mode included — a compiled
	// stream's too, which stores no modes. (The centralized master's waits
	// are not a task's.)
	for id, waits := range l.waitedOn {
		if id < 0 {
			continue
		}
		for _, a := range waits {
			if !slices.Contains(g.Tasks[id].Accesses, a) {
				t.Errorf("task %d waited on %+v, which it does not declare (%+v)", id, a, g.Tasks[id].Accesses)
			}
		}
	}
}

func TestHookContractAllEngines(t *testing.T) {
	g := graphs.Wavefront(8, 8)
	const p = 4

	t.Run("rio-closure", func(t *testing.T) {
		l := newHookLog()
		e, err := core.New(core.Options{Workers: p, Hooks: l.hooks()})
		if err != nil {
			t.Fatal(err)
		}
		if err := enginetest.Check(e, g); err != nil {
			t.Fatal(err)
		}
		l.check(t, g, 1)
	})

	t.Run("rio-compiled", func(t *testing.T) {
		l := newHookLog()
		e, err := core.New(core.Options{Workers: p, Hooks: l.hooks()})
		if err != nil {
			t.Fatal(err)
		}
		m := func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(id % p) }
		cp, err := stf.Compile(g, m, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := enginetest.CheckCompiled(e, g, cp); err != nil {
			t.Fatal(err)
		}
		l.check(t, g, 1)
	})

	// A wait that certainly happens on a compiled stream: worker 1's get on
	// task 1 waits for task 0's slow body. Its hooks must name the declared
	// ReadWrite, not the Write its opcode implies.
	t.Run("rio-compiled-wait", func(t *testing.T) {
		g := stf.NewGraph("handoff", 1)
		g.Add(0, 0, 0, 0, stf.RW(0))
		g.Add(0, 1, 0, 0, stf.RW(0))
		l := newHookLog()
		e, err := core.New(core.Options{Workers: 2, Hooks: l.hooks()})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := stf.Compile(g, func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(id) }, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = e.RunCompiled(cp, func(tk *stf.Task, _ stf.WorkerID) {
			if tk.ID == 0 {
				time.Sleep(20 * time.Millisecond)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		l.check(t, g, 1)
		if w := l.waitedOn[1]; len(w) != 1 || w[0] != stf.RW(0) {
			t.Errorf("task 1 waited on %+v, want one wait on %+v", w, stf.RW(0))
		}
	})

	// A program compiled for fewer workers than the engine has runs at its
	// own width: the bracket reports that width, and the hooks name only
	// the workers the run has — here worker 0 alone.
	t.Run("rio-compiled-narrow", func(t *testing.T) {
		l := newHookLog()
		e, err := core.New(core.Options{Workers: p, Hooks: l.hooks()})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := stf.Compile(g, func(stf.TaskID) stf.WorkerID { return 0 }, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := enginetest.CheckCompiled(e, g, cp); err != nil {
			t.Fatal(err)
		}
		l.check(t, g, 1)
		l.mu.Lock()
		defer l.mu.Unlock()
		if want := [][2]int{{1, g.NumData}}; !slices.Equal(l.runArgs, want) {
			t.Errorf("OnRunStart(workers, numData) fired with %v, want %v", l.runArgs, want)
		}
		if len(l.named) != 1 || !l.named[0] {
			t.Errorf("hooks named workers %v, want worker 0 only", l.named)
		}
	})

	t.Run("centralized", func(t *testing.T) {
		l := newHookLog()
		e, err := centralized.New(centralized.Options{Workers: p, Hooks: l.hooks()})
		if err != nil {
			t.Fatal(err)
		}
		if err := enginetest.Check(e, g); err != nil {
			t.Fatal(err)
		}
		l.check(t, g, 1)
	})

	t.Run("sequential", func(t *testing.T) {
		l := newHookLog()
		e := sequential.New(sequential.Options{Hooks: l.hooks()})
		if err := enginetest.Check(e, g); err != nil {
			t.Fatal(err)
		}
		l.check(t, g, 1)
	})

	// A native stream is a sequence of runs: every window gets exactly one
	// OnRunStart/OnRunEnd pair, and that pair nests all of the window's task
	// hooks.
	t.Run("rio-stream", func(t *testing.T) {
		const windows = 5
		l := newHookLog()
		eng, err := rio.NewEngine(rio.Options{Workers: p, Hooks: l.hooks()})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, g.NumData)
		s, err := eng.Stream(g.NumData, rio.StreamOptions{MaxWindow: -1, Kernel: enginetest.Fold(got)})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < windows; w++ {
			for i := range g.Tasks {
				tk := &g.Tasks[i]
				s.Task(tk.Kernel, i, tk.J, tk.K, tk.Accesses...)
			}
			if err := s.Flush(); err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		l.check(t, g, windows)
	})

	// The bracket of a window whose body panics reports the failure (the
	// panicking task's OnTaskEnd is skipped, so only the errors are checked).
	t.Run("rio-stream-panic", func(t *testing.T) {
		l := newHookLog()
		eng, err := rio.NewEngine(rio.Options{Workers: p, Hooks: l.hooks()})
		if err != nil {
			t.Fatal(err)
		}
		kern := func(tk *stf.Task, _ stf.WorkerID) {
			if tk.I == 1 {
				panic("boom")
			}
		}
		s, err := eng.Stream(1, rio.StreamOptions{MaxWindow: -1, Kernel: kern})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			s.Task(0, i, 0, 0, stf.RW(0))
			s.Flush()
		}
		if err := s.Close(); err == nil {
			t.Fatal("a stream with a panicking window closed cleanly")
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if len(l.runErrs) != 2 || l.runStarts != 2 {
			t.Fatalf("run hooks fired %d/%d times over 2 windows, want 2/2", l.runStarts, len(l.runErrs))
		}
		if l.runErrs[0] != nil || l.runErrs[1] == nil {
			t.Errorf("OnRunEnd errors %v, want nil for the clean window and non-nil for the panicking one", l.runErrs)
		}
	})
}

// A panicking task body must skip OnTaskEnd (and fail the run), leaving
// every other pairing intact.
func TestHooksPanicSkipsTaskEnd(t *testing.T) {
	l := newHookLog()
	h := l.hooks()
	// The bracketing checks assume clean completion; here the interesting
	// bits are the counts only.
	h.OnRunEnd = func(error) { l.mu.Lock(); l.runEnds++; l.mu.Unlock() }
	e, err := core.New(core.Options{Workers: 2, Hooks: h})
	if err != nil {
		t.Fatal(err)
	}
	runErr := e.Run(1, func(s stf.Submitter) {
		s.Submit(func() { panic("boom") }, stf.W(0))
	})
	if runErr == nil {
		t.Fatal("run with panicking task returned nil error")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.taskStarts[0] != 1 {
		t.Errorf("OnTaskStart fired %d times, want 1", l.taskStarts[0])
	}
	if l.taskEnds[0] != 0 {
		t.Errorf("OnTaskEnd fired %d times for a panicking body, want 0", l.taskEnds[0])
	}
	if l.runEnds != 1 {
		t.Errorf("OnRunEnd fired %d times, want 1", l.runEnds)
	}
}

// Stats and Progress read the same run record, so once a run is over they
// agree on every counter of every worker — including under NoAccounting,
// where time decomposition stops but task counting does not. The rows make
// each counter nonzero somewhere: Declared (every in-order row, and the
// centralized master's submissions), Stolen and StealFailed (a skewed armed
// run), Executed everywhere.
func TestProgressMatchesStats(t *testing.T) {
	g := graphs.Wavefront(8, 8)
	const p = 4
	type observed interface {
		Stats() *trace.Stats
		Progress() trace.Progress
	}
	check := func(t *testing.T, e observed) (*trace.Stats, trace.Progress) {
		t.Helper()
		st, pr := e.Stats(), e.Progress()
		if pr.Running {
			t.Error("Progress.Running true after the run returned")
		}
		if len(pr.Workers) != len(st.Workers) {
			t.Fatalf("Progress has %d workers, Stats %d", len(pr.Workers), len(st.Workers))
		}
		for w := range pr.Workers {
			wp, ws := pr.Workers[w], st.Workers[w]
			if wp.Counters != ws.Counters || wp.WaitHist != ws.WaitHist {
				t.Errorf("worker %d: Progress reads %+v %v, Stats %+v %v", w, wp.Counters, wp.WaitHist, ws.Counters, ws.WaitHist)
			}
			if wp.Current != stf.NoTask || ws.Current != stf.NoTask {
				t.Errorf("worker %d: Current=%d (Stats %d) after the run, want NoTask", w, wp.Current, ws.Current)
			}
		}
		if n := st.Executed(); n != int64(len(g.Tasks)) {
			t.Errorf("executed = %d, want the flow's %d tasks", n, len(g.Tasks))
		}
		return st, pr
	}
	run := func(t *testing.T, opts rio.Options, k stf.Kernel) (*trace.Stats, trace.Progress) {
		t.Helper()
		rt := mustEngine(t, opts)
		if err := rt.Run(g.NumData, stf.Replay(g, k)); err != nil {
			t.Fatal(err)
		}
		return check(t, rt)
	}

	for _, noAcct := range []bool{false, true} {
		name := "accounting"
		if noAcct {
			name = "noaccounting"
		}
		t.Run("rio-"+name, func(t *testing.T) {
			e, err := core.New(core.Options{Workers: p, NoAccounting: noAcct})
			if err != nil {
				t.Fatal(err)
			}
			if err := enginetest.Check(e, g); err != nil {
				t.Fatal(err)
			}
			_, pr := check(t, e)
			var waits int64
			for _, n := range pr.WaitHist() {
				waits += n
			}
			if noAcct && waits != 0 {
				t.Errorf("NoAccounting run bucketed %d waits, want 0", waits)
			}
		})
	}

	t.Run("rio-compiled", func(t *testing.T) {
		e, err := core.New(core.Options{Workers: p})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := stf.Compile(g, func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(id % p) }, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := enginetest.CheckCompiled(e, g, cp); err != nil {
			t.Fatal(err)
		}
		check(t, e)
	})

	t.Run("rio-steal", func(t *testing.T) {
		st, _ := run(t, rio.Options{
			Model: rio.InOrder, Workers: p, Steal: &rio.StealPolicy{},
			Mapping: func(stf.TaskID) stf.WorkerID { return 0 },
		}, sleepKernel(50*time.Microsecond))
		if st.Stolen() == 0 {
			t.Error("a skewed armed run stole nothing")
		}
	})

	t.Run("centralized", func(t *testing.T) {
		// The centralized engine's one ready queue is FIFO.
		t.Run("fifo", func(t *testing.T) {
			e, err := centralized.New(centralized.Options{Workers: p})
			if err != nil {
				t.Fatal(err)
			}
			if err := enginetest.Check(e, g); err != nil {
				t.Fatal(err)
			}
			if st, _ := check(t, e); st.Workers[0].Declared != int64(len(g.Tasks)) {
				t.Errorf("master Declared=%d, want %d (all tasks submitted)", st.Workers[0].Declared, len(g.Tasks))
			}
		})
	})

	t.Run("sequential", func(t *testing.T) {
		e := sequential.New(sequential.Options{})
		if err := enginetest.Check(e, g); err != nil {
			t.Fatal(err)
		}
		if _, pr := check(t, e); pr.WaitHist() != ([trace.NumWaitBuckets]int64{}) {
			t.Errorf("sequential run bucketed waits: %v", pr.WaitHist())
		}
	})
}

// Progress must be callable from any goroutine while a run is in flight
// (the race detector is the real assertion here), and the snapshots must
// be monotonic in the executed count.
func TestProgressConcurrentWithRun(t *testing.T) {
	g := graphs.Wavefront(16, 16)
	const p = 4
	e, err := core.New(core.Options{Workers: p})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pr := e.Progress()
				if n := pr.Executed(); n < 0 || n > int64(len(g.Tasks)) {
					panic(fmt.Sprintf("snapshot out of range: %d of %d", n, len(g.Tasks)))
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	var runErr error
	for i := 0; i < 5; i++ {
		if _, runErr = enginetest.Run(e, g); runErr != nil {
			break
		}
	}
	close(done)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	pr := e.Progress()
	if pr.Running {
		t.Error("Running true after all runs returned")
	}
	if got, want := pr.Executed(), int64(len(g.Tasks)); got != want {
		t.Errorf("final Executed=%d, want %d", got, want)
	}
}
