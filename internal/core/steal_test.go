package core_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// writeGraph: n independent tasks, task i writing data i — the simplest
// flow in which every task is stealable from the start.
func writeGraph(n int) *stf.Graph {
	g := stf.NewGraph("steal-writes", n)
	for i := 0; i < n; i++ {
		g.Add(0, i, 0, 0, stf.W(stf.DataID(i)))
	}
	return g
}

func TestStealOptionValidation(t *testing.T) {
	bad := []core.Options{
		{Workers: 2, Steal: &stf.StealPolicy{MaxScan: -1}},
		{Workers: 2, Steal: &stf.StealPolicy{Victims: []stf.WorkerID{-1}}},
		{Workers: 2, Steal: &stf.StealPolicy{Victims: []stf.WorkerID{2}}},
	}
	for i, o := range bad {
		if _, err := core.New(o); err == nil {
			t.Errorf("case %d: invalid steal policy accepted", i)
		}
	}
	if _, err := core.New(core.Options{Workers: 2, Steal: &stf.StealPolicy{Victims: []stf.WorkerID{0, 1}}}); err != nil {
		t.Errorf("valid steal policy rejected: %v", err)
	}
}

// A fully skewed mapping (every task on worker 0) with a task body slow
// enough that the owner cannot outrun the thieves: the idle workers'
// end-of-replay drain must pick up a substantial share of the backlog.
// This is the imbalance-escape scenario of the hybrid model, on both
// replay paths.
func TestStealSkewedDrain(t *testing.T) {
	const n = 64
	g := writeGraph(n)
	p := 4
	run := func(t *testing.T, exec func(e *core.Engine, k stf.Kernel) error) {
		var execs [n]atomic.Int32
		kern := func(tk *stf.Task, _ stf.WorkerID) {
			time.Sleep(200 * time.Microsecond)
			execs[tk.ID].Add(1)
		}
		e := newEngine(t, core.Options{Workers: p, Mapping: sched.Single(0), Steal: &stf.StealPolicy{}})
		if err := exec(e, kern); err != nil {
			t.Fatal(err)
		}
		for i := range execs {
			if got := execs[i].Load(); got != 1 {
				t.Errorf("task %d executed %d times", i, got)
			}
		}
		st := e.Stats()
		if st.Executed() != n {
			t.Errorf("executed %d, want %d", st.Executed(), n)
		}
		if st.Stolen() == 0 {
			t.Error("no steals on a fully skewed mapping with slow tasks")
		}
		if w0 := st.Workers[0].Stolen; w0 != 0 {
			t.Errorf("the lone owner stole %d tasks from itself", w0)
		}
	}
	t.Run("closure", func(t *testing.T) {
		run(t, func(e *core.Engine, k stf.Kernel) error {
			return e.Run(g.NumData, stf.Replay(g, k))
		})
	})
	t.Run("compiled", func(t *testing.T) {
		run(t, func(e *core.Engine, k stf.Kernel) error {
			return e.RunCompiled(compile(t, g, sched.Single(0), p, nil), k)
		})
	})
}

// The other trigger point: a worker blocked in a dependency wait (not done
// with its replay) must steal from the wait's slow phase. Worker 1 owns
// only the final task, which reads every data object worker 0's slow
// writes produce — so it spends the whole run inside get_read waits, and
// any steals it makes happened there.
func TestStealFromDependencyWait(t *testing.T) {
	const n = 48
	g := stf.NewGraph("steal-wait", n)
	for i := 0; i < n; i++ {
		g.Add(0, i, 0, 0, stf.W(stf.DataID(i)))
	}
	accesses := make([]stf.Access, n)
	for i := range accesses {
		accesses[i] = stf.R(stf.DataID(i))
	}
	last := g.Add(0, n, 0, 0, accesses...)
	m := func(id stf.TaskID) stf.WorkerID {
		if id == last {
			return 1
		}
		return 0
	}
	var sum atomic.Int64
	vals := make([]int64, n)
	kern := func(tk *stf.Task, _ stf.WorkerID) {
		if tk.ID == last {
			var s int64
			for d := 0; d < n; d++ {
				s += vals[d]
			}
			sum.Store(s)
			return
		}
		time.Sleep(200 * time.Microsecond)
		vals[tk.ID] = int64(tk.ID) + 1
	}
	// A short spin/yield budget sends worker 1's waits into the slow phase
	// (where steal attempts live) well before a 200µs dependency resolves;
	// the default yield budget alone can eat that long.
	e := newEngine(t, core.Options{Workers: 2, Mapping: m, Steal: &stf.StealPolicy{MaxScan: 16}})
	core.SetWaitLimits(e, 16, 16)
	if err := e.Run(g.NumData, stf.Replay(g, kern)); err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * (int64(n) + 1) / 2; sum.Load() != want {
		t.Errorf("final task saw sum %d, want %d", sum.Load(), want)
	}
	st := e.Stats()
	if st.Workers[1].Stolen == 0 {
		t.Error("the waiting worker stole nothing during its dependency waits")
	}
}

// Every workload, mapping and policy variant must stay sequentially
// consistent with stealing enabled — the steal protocol is an executor
// choice, never an ordering choice. Both entry points: a closure Run (which
// an armed engine records and compiles itself, or — under the partial
// "shared" mapping, which cannot compile — replays plainly) and an
// explicitly compiled program.
func TestStealMatchesSequentialMatrix(t *testing.T) {
	workloads := []*stf.Graph{
		graphs.Independent(200),
		writeGraph(64),
		graphs.Chain(64),
		graphs.RandomDeps(300, 16, 2, 1, 42),
		graphs.GEMM(4),
		graphs.LU(5),
		graphs.Wavefront(6, 6),
		reductionGraph(64),
	}
	policies := map[string]*stf.StealPolicy{
		"default": {},
		"tight":   {MaxScan: 1},
		"ranked":  {Victims: []stf.WorkerID{0, 1}},
	}
	for _, g := range workloads {
		for _, p := range []int{2, 3, 7} {
			mappings := map[string]stf.Mapping{
				"single": sched.Single(0),
				"cyclic": sched.Cyclic(p),
				"block":  sched.Block(len(g.Tasks), p),
				"shared": sched.Partial(sched.Cyclic(p), func(id stf.TaskID) bool { return id%2 == 0 }),
			}
			for mname, m := range mappings {
				for pname, pol := range policies {
					e := newEngine(t, core.Options{Workers: p, Mapping: m, Steal: pol})
					if err := enginetest.Check(e, g); err != nil {
						t.Errorf("%s p=%d %s/%s closure: %v", g.Name, p, mname, pname, err)
					}
					if n := e.Stats().Executed(); n != int64(len(g.Tasks)) {
						t.Errorf("%s p=%d %s/%s closure: executed %d of %d", g.Name, p, mname, pname, n, len(g.Tasks))
					}
					if mname == "shared" {
						continue // partial mappings have no compiled form
					}
					cp := compile(t, g, m, p, nil)
					if err := enginetest.CheckCompiled(e, g, cp); err != nil {
						t.Errorf("%s p=%d %s/%s compiled: %v", g.Name, p, mname, pname, err)
					}
					if n := e.Stats().Executed(); n != int64(len(g.Tasks)) {
						t.Errorf("%s p=%d %s/%s compiled: executed %d of %d", g.Name, p, mname, pname, n, len(g.Tasks))
					}
				}
			}
		}
	}
}

// The claim-race hammer: thousands of owner-vs-thief CAS races on tiny
// tasks. Exactly-once execution is the whole point of the claim table —
// any double execution or drop shows up in the per-task counters.
func TestStealClaimRaceHammer(t *testing.T) {
	const n = 64
	iters := 1500
	if testing.Short() {
		iters = 200
	}
	g := writeGraph(n)
	p := 4
	m := sched.Single(0)
	cp := compile(t, g, m, p, nil)
	hammer := func(t *testing.T, exec func(e *core.Engine, k stf.Kernel) error) {
		e := newEngine(t, core.Options{Workers: p, Mapping: m, Steal: &stf.StealPolicy{}, NoAccounting: true})
		var stolen int64
		for it := 0; it < iters; it++ {
			var execs [n]atomic.Int32
			// The kernel yields so owner and thieves interleave even at
			// GOMAXPROCS=1 — without a scheduling point the owner can hold
			// the only P and clear its backlog before any thief runs. On
			// multi-core boxes the yield is nearly free and the claim race
			// is a true parallel CAS race.
			kern := func(tk *stf.Task, _ stf.WorkerID) {
				runtime.Gosched()
				execs[tk.ID].Add(1)
			}
			if err := exec(e, kern); err != nil {
				t.Fatalf("iter %d: %v", it, err)
			}
			for i := range execs {
				if got := execs[i].Load(); got != 1 {
					t.Fatalf("iter %d: task %d executed %d times", it, i, got)
				}
			}
			st := e.Stats()
			if st.Executed() != n {
				t.Fatalf("iter %d: executed %d, want %d", it, st.Executed(), n)
			}
			stolen += st.Stolen()
		}
		if stolen == 0 {
			t.Errorf("%d iterations produced no steals (race never exercised)", iters)
		}
	}
	t.Run("closure", func(t *testing.T) {
		hammer(t, func(e *core.Engine, k stf.Kernel) error {
			return e.Run(g.NumData, stf.Replay(g, k))
		})
	})
	t.Run("compiled", func(t *testing.T) {
		hammer(t, func(e *core.Engine, k stf.Kernel) error {
			return e.RunCompiled(cp, k)
		})
	})
}

// The observability contract: OnTaskSteal fires once per successful steal
// with the thief's and owner's identities, and the Stats / Progress stolen
// counters agree with it.
func TestStealHooksAndCounters(t *testing.T) {
	const n = 48
	g := writeGraph(n)
	p := 3
	var mu sync.Mutex
	type ev struct {
		thief, owner stf.WorkerID
		id           stf.TaskID
	}
	var events []ev
	e := newEngine(t, core.Options{
		Workers: p,
		Mapping: sched.Single(0),
		Steal:   &stf.StealPolicy{},
		Hooks: &stf.Hooks{OnTaskSteal: func(thief, owner stf.WorkerID, id stf.TaskID) {
			mu.Lock()
			events = append(events, ev{thief, owner, id})
			mu.Unlock()
		}},
	})
	kern := func(*stf.Task, stf.WorkerID) { time.Sleep(100 * time.Microsecond) }
	if err := e.Run(g.NumData, stf.Replay(g, kern)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Stolen() == 0 {
		t.Fatal("no steals to observe")
	}
	if int64(len(events)) != st.Stolen() {
		t.Errorf("OnTaskSteal fired %d times, Stats counted %d steals", len(events), st.Stolen())
	}
	seen := make(map[stf.TaskID]bool)
	for _, v := range events {
		if v.owner != 0 || v.thief == 0 || int(v.id) >= n {
			t.Errorf("bad steal event %+v", v)
		}
		if seen[v.id] {
			t.Errorf("task %d reported stolen twice", v.id)
		}
		seen[v.id] = true
	}
	prog := e.Progress()
	if prog.Stolen() != st.Stolen() {
		t.Errorf("Progress stolen %d, Stats stolen %d", prog.Stolen(), st.Stolen())
	}
	if prog.StealFailed() != st.StealFailed() {
		t.Errorf("Progress stealFailed %d, Stats %d", prog.StealFailed(), st.StealFailed())
	}
}

// Streaming sessions with stealing: windows alternate a steal-heavy shape
// (independent slow writes, fully skewed) and a fully serialized chain
// whose values thread through the whole window — sequential consistency
// within each window, state recycling between them, and steals confined to
// their window must all hold across many windows. Both window replay paths:
// compiled windows carry steal metadata and must steal; closure windows
// (no compiled shape) carry none and simply replay statically.
func TestStealStreamSession(t *testing.T) {
	const (
		numData = 16
		windows = 20
	)
	indep := stf.NewGraph("win-indep", numData)
	for i := 0; i < numData; i++ {
		indep.Add(0, i, 0, 0, stf.W(stf.DataID(i)))
	}
	chain := stf.NewGraph("win-chain", numData)
	chain.Add(0, 0, 0, 0, stf.W(0))
	for i := 1; i < numData; i++ {
		chain.Add(0, i, 0, 0, stf.R(stf.DataID(i-1)), stf.W(stf.DataID(i)))
	}
	touched := make([]stf.DataID, numData)
	for i := range touched {
		touched[i] = stf.DataID(i)
	}
	p := 3
	m := sched.Single(0)
	cpIndep := compile(t, indep, m, p, nil)
	cpChain := compile(t, chain, m, p, nil)

	for _, mode := range []string{"closure", "compiled"} {
		t.Run(mode, func(t *testing.T) {
			e := newEngine(t, core.Options{Workers: p, Mapping: m, Steal: &stf.StealPolicy{}})
			ss, err := e.OpenSession(numData, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()

			vals := make([]int64, numData)
			acc := make([]int64, numData)
			var wantAcc [numData]int64
			for w := 0; w < windows; w++ {
				base := int64(w * 1000)
				var wr core.WindowRun
				if w%2 == 0 {
					wr.Tasks = indep.Tasks
					wr.Kernel = func(tk *stf.Task, _ stf.WorkerID) {
						time.Sleep(50 * time.Microsecond)
						vals[tk.ID] = base + int64(tk.ID)
						acc[tk.ID] += vals[tk.ID]
					}
					if mode == "compiled" {
						wr.Compiled = cpIndep
					}
					for i := 0; i < numData; i++ {
						wantAcc[i] += base + int64(i)
					}
				} else {
					wr.Tasks = chain.Tasks
					wr.Kernel = func(tk *stf.Task, _ stf.WorkerID) {
						if tk.ID == 0 {
							vals[0] = base
						} else {
							vals[tk.ID] = vals[tk.ID-1] + 1
						}
						acc[tk.ID] += vals[tk.ID]
					}
					if mode == "compiled" {
						wr.Compiled = cpChain
					}
					for i := 0; i < numData; i++ {
						wantAcc[i] += base + int64(i)
					}
				}
				wr.Touched = touched
				if err := ss.Flush(wr); err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
			}
			if err := ss.Drain(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < numData; i++ {
				if acc[i] != wantAcc[i] {
					t.Errorf("data %d accumulated %d over %d windows, want %d", i, acc[i], windows, wantAcc[i])
				}
			}
			prog := e.Progress()
			if got := prog.Stolen(); (got > 0) != (mode == "compiled") {
				t.Errorf("%s windows of a fully skewed streaming session stole %d tasks", mode, got)
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A steal policy must not mask real failures: a panicking stolen task
// aborts the run with the panic surfaced, exactly like an owner-executed
// one.
func TestStealPanicPropagates(t *testing.T) {
	const n = 32
	g := writeGraph(n)
	e := newEngine(t, core.Options{Workers: 4, Mapping: sched.Single(0), Steal: &stf.StealPolicy{}})
	kern := func(tk *stf.Task, _ stf.WorkerID) {
		time.Sleep(100 * time.Microsecond)
		if tk.ID == n-1 {
			panic("stolen kaboom")
		}
	}
	err := e.Run(g.NumData, stf.Replay(g, kern))
	if err == nil {
		t.Fatal("injected panic returned nil error")
	}
}
