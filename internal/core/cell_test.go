package core_test

import (
	"sync"
	"testing"
	"time"

	"rio/internal/core"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// cellChecker's hooks check, at every hook a worker fires, the pair its
// progress cell publishes (trace.ProgressCell): at a task's start and end
// the task is current and only the tasks that ended before it are counted;
// in a blocking wait and at a steal no task is current and every task that
// ended is counted. The hooks fire on the worker whose
// cell they read, so ends[w] has one writer at a time.
type cellChecker struct {
	t    *testing.T
	e    *core.Engine
	ends []int64 // OnTaskEnd calls per worker
	hits [4]int  // checks made at start, end, wait, steal

	mu     sync.Mutex
	failed bool
}

func newCellChecker(t *testing.T, workers int) *cellChecker {
	return &cellChecker{t: t, ends: make([]int64, workers)}
}

func (c *cellChecker) hooks() *stf.Hooks {
	return &stf.Hooks{
		OnTaskStart: func(w stf.WorkerID, id stf.TaskID) { c.check(w, 0, id) },
		OnTaskEnd: func(w stf.WorkerID, id stf.TaskID) {
			c.check(w, 1, id)
			c.ends[w]++
		},
		OnWaitStart: func(w stf.WorkerID, _ stf.TaskID, _ stf.Access) { c.check(w, 2, stf.NoTask) },
		OnTaskSteal: func(thief, _ stf.WorkerID, _ stf.TaskID) { c.check(thief, 3, stf.NoTask) },
	}
}

var cellHookNames = [...]string{"task start", "task end", "wait", "steal"}

func (c *cellChecker) check(w stf.WorkerID, at int, current stf.TaskID) {
	st := c.e.Table().Worker(int(w)).State()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits[at]++
	if (st.Current != current || st.Executed != c.ends[w]) && !c.failed {
		c.failed = true // one report: the rest would repeat it
		c.t.Errorf("worker %d at %s: cell reads current %d, executed %d; want %d, %d",
			w, cellHookNames[at], st.Current, st.Executed, current, c.ends[w])
	}
}

// engine builds the engine the checker reads, with its hooks installed.
func (c *cellChecker) engine(o core.Options) *core.Engine {
	o.Hooks = c.hooks()
	c.e = newEngine(c.t, o)
	return c.e
}

// finished checks the cells after the run: nothing current, and every
// executed task counted.
func (c *cellChecker) finished(n int64) {
	c.t.Helper()
	p := c.e.Progress()
	for w, ws := range p.Workers {
		if ws.Current != stf.NoTask || ws.Executed != c.ends[w] {
			c.t.Errorf("worker %d after the run: current %d, executed %d; want NoTask, %d", w, ws.Current, ws.Executed, c.ends[w])
		}
	}
	if p.Executed() != n {
		c.t.Errorf("executed %d, want %d", p.Executed(), n)
	}
}

// A one-worker compiled stream is bare exec words: each task's start
// publishes the task before it as executed, in the same store.
func TestCellPublishBareStream(t *testing.T) {
	c := newCellChecker(t, 1)
	e := c.engine(core.Options{Workers: 1, NoAccounting: true})
	g := graphs.Cholesky(4)
	cp := compile(t, g, nil, 1, nil)
	for i, w := range cp.Streams[0] {
		if w.Op() != stf.OpExec {
			t.Fatalf("word %d of the one-worker stream is op %d, want only execs", i, w.Op())
		}
	}
	if err := e.RunCompiled(cp, func(*stf.Task, stf.WorkerID) {}); err != nil {
		t.Fatal(err)
	}
	c.finished(int64(len(g.Tasks)))
	if c.hits[0] != len(g.Tasks) {
		t.Errorf("%d task starts checked, want %d", c.hits[0], len(g.Tasks))
	}
}

// A contended stream that blocks in a get right after an exec: the wait
// starts with the finished task counted and no task current.
func TestCellPublishGetAfterExec(t *testing.T) {
	// Task 0 writes worker 0's private datum 0; task 1, on worker 1, writes
	// datum 1 slowly; task 2, on worker 0, reads datum 1 and so waits.
	g := stf.NewGraph("get-after-exec", 2)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(1, 0, 0, 0, stf.W(1))
	g.Add(0, 0, 0, 0, stf.R(1))
	m := func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(id % 2) }
	cp := compile(t, g, m, 2, nil)
	s := cp.Streams[0]
	if s[0].Op() != stf.OpExec || s[1].Op() == stf.OpExec {
		t.Fatalf("worker 0's stream %v does not open with an exec followed by the next group", s)
	}
	c := newCellChecker(t, 2)
	e := c.engine(core.Options{Workers: 2, NoAccounting: true})
	err := e.RunCompiled(cp, func(task *stf.Task, _ stf.WorkerID) {
		if task.Kernel == 1 {
			time.Sleep(20 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.finished(3)
	if c.hits[2] == 0 {
		t.Error("worker 0 never blocked in its get")
	}
}

// Closure replay publishes each completion before the user's program runs
// again: user code that sleeps between submissions is neither a task in
// flight to a progress reader nor a stuck body to the watchdog.
func TestCellPublishClosureSlowUserCode(t *testing.T) {
	const workers, tasks = 2, 6
	c := newCellChecker(t, workers)
	e := c.engine(core.Options{Workers: workers, StallTimeout: 20 * time.Millisecond})
	err := e.Run(2, func(s stf.Submitter) {
		var mine int64
		for i := 0; i < tasks; i++ {
			id := s.Submit(func() {}, stf.RW(stf.DataID(i%2)))
			if int(id)%workers == int(s.Worker()) {
				mine++
			}
			if st := e.Table().Worker(int(s.Worker())).State(); st.Current != stf.NoTask || st.Executed != mine {
				t.Errorf("worker %d back in user code after task %d: current %d, executed %d; want NoTask, %d",
					s.Worker(), id, st.Current, st.Executed, mine)
			}
			time.Sleep(50 * time.Millisecond) // three watchdog thresholds
		}
	})
	if err != nil {
		t.Fatalf("run with slow user code between submissions: %v", err)
	}
	c.finished(tasks)
}

// An armed engine's idle worker steals in its end-of-replay drain: each
// steal starts with the thief's earlier tasks counted and none current.
func TestCellPublishStealDrain(t *testing.T) {
	const workers, tasks = 2, 40
	g := stf.NewGraph("skewed", tasks)
	for i := 0; i < tasks; i++ {
		g.Add(0, i, 0, 0, stf.W(stf.DataID(i)))
	}
	c := newCellChecker(t, workers)
	e := c.engine(core.Options{
		Workers: workers, NoAccounting: true,
		Mapping: sched.Single(0), Steal: &stf.StealPolicy{},
	})
	cp := compile(t, g, sched.Single(0), workers, nil)
	if err := e.RunCompiled(cp, func(*stf.Task, stf.WorkerID) { time.Sleep(time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	c.finished(tasks)
	if stolen := e.Progress().Stolen(); stolen == 0 || c.hits[3] != int(stolen) {
		t.Errorf("%d tasks stolen, %d steals checked: want as many, at least one", stolen, c.hits[3])
	}
}

// A session's cells count across its windows: after 10^4 windows every
// task of every window is counted once, and every window's hooks read its
// workers' cells right.
func TestCellPublishSessionWindows(t *testing.T) {
	const workers, windows = 2, 10_000
	g := stf.NewGraph("window", 2)
	for i := 0; i < 4; i++ {
		g.Add(0, i, 0, 0, stf.RW(stf.DataID(i/2)))
	}
	cp := compile(t, g, sched.Cyclic(workers), workers, nil)
	c := newCellChecker(t, workers)
	e := c.engine(core.Options{Workers: workers, NoAccounting: true})
	ss, err := e.OpenSession(g.NumData, 0)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*stf.Task, stf.WorkerID) {}
	for i := 0; i < windows; i++ {
		if err := ss.Flush(core.WindowRun{Tasks: g.Tasks, Kernel: noop, Compiled: cp, Touched: []stf.DataID{0, 1}}); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	c.finished(windows * int64(len(g.Tasks)))
}
