package enginetest_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rio"
	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/sched"
	"rio/internal/sequential"
	"rio/internal/stf"
)

// Uncontended-data elision, end to end: whatever the compiler leaves out of
// the streams, the data every run ends with must be the sequential ones.
// The mappings below span the classification — cyclic and block split most
// data across workers, single makes every datum private to worker 0, owner
// sends each task to the worker of the datum it writes, which leaves the
// written data private and the read-only ones shared.

type namedMapping struct {
	name string
	m    stf.Mapping
}

func elisionMappings(g *stf.Graph, p int) []namedMapping {
	owner := sched.FromTask(g, func(t *stf.Task) stf.WorkerID {
		for _, a := range t.Accesses {
			if a.Mode.Writes() {
				return stf.WorkerID(int(a.Data) % p)
			}
		}
		return stf.WorkerID(int(t.ID) % p)
	})
	return []namedMapping{
		{"cyclic", sched.Cyclic(p)},
		{"block", sched.Block(len(g.Tasks), p)},
		{"single", sched.Single(0)},
		{"owner", owner},
	}
}

// randomFlow alternates the two generators so reductions are covered.
func randomFlow(seed int64) *stf.Graph {
	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 0 {
		return enginetest.RandomGraph(rng, 60, 8)
	}
	return enginetest.RandomGraphWithReductions(rng, 60, 8)
}

func sequentialVals(t *testing.T, g *stf.Graph) []uint64 {
	t.Helper()
	vals := make([]uint64, g.NumData)
	if err := sequential.New(sequential.Options{}).Run(g.NumData, stf.Replay(g, enginetest.Fold(vals))); err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestElisionDifferential runs random flows × mappings × §3.5 pruning
// through a one-shot RunGraph and through Stream windows (where every
// window shape is classified on its own, with window-local IDs under the
// same mapping), with every program certified (the one-shot program and
// each window's, lowered by rio.Compile as the engine lowers them), and
// compares the final data with the sequential oracle. Run it under -race:
// an elided datum two workers do conflict on is a data race in the fold.
func TestElisionDifferential(t *testing.T) {
	const workers = 3
	for seed := int64(1); seed <= 12; seed++ {
		g := randomFlow(seed)
		want := sequentialVals(t, g)
		for _, nm := range elisionMappings(g, workers) {
			for _, prune := range []bool{false, true} {
				for _, windowed := range []bool{false, true} {
					name := fmt.Sprintf("seed%d/%s/prune=%v/windowed=%v", seed, nm.name, prune, windowed)
					certifyLowering(t, name, g, workers, nm.m, prune, windowed)
					eng, err := rio.NewEngine(rio.Options{Workers: workers, Mapping: nm.m, Prune: prune})
					if err != nil {
						t.Fatal(err)
					}
					got := make([]uint64, g.NumData)
					if windowed {
						err = streamFlow(eng, g, enginetest.Fold(got))
					} else {
						err = eng.RunGraph(g, enginetest.Fold(got))
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: final data %x, sequential %x", name, got, want)
					}
				}
			}
		}
	}
}

// certifyLowering certifies what an engine under m lowers from g: the whole
// graph, or with windowed each 7-task window of streamFlow, its IDs
// window-local.
func certifyLowering(t *testing.T, name string, g *stf.Graph, workers int, m rio.Mapping, prune, windowed bool) {
	t.Helper()
	lowered := []*stf.Graph{g}
	if windowed {
		lowered = nil
		for lo := 0; lo < len(g.Tasks); lo += 7 {
			w := stf.NewGraph(g.Name, g.NumData)
			for _, tk := range g.Tasks[lo:min(lo+7, len(g.Tasks))] {
				w.Add(tk.Kernel, tk.I, tk.J, tk.K, tk.Accesses...)
			}
			lowered = append(lowered, w)
		}
	}
	for _, lg := range lowered {
		cp, err := rio.Compile(lg, workers, m, prune)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep := rio.Verify(lg, cp, m, nil); len(rep.Findings) != 0 {
			t.Fatalf("%s: lowering not certified: %v", name, rep.Findings)
		}
	}
}

// streamFlow pushes g through a session in 7-task windows.
func streamFlow(eng *rio.Engine, g *stf.Graph, k stf.Kernel) error {
	s, err := eng.Stream(g.NumData, rio.StreamOptions{MaxWindow: 7, Kernel: k})
	if err != nil {
		return err
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		s.Task(t.Kernel, t.I, t.J, t.K, t.Accesses...)
	}
	return s.Close()
}

// TestElidedProgramOnArmedEngine is the regression test of the steal/elision
// interaction: steal requirements come from the task table, not from the
// streams, so over an elided all-Single(0) chain flow a thief may claim the
// first task of a chain (its requirement is the pristine cell) while the
// owner's next task on that chain, holding no get_write, runs beside it. An
// armed engine must therefore never interpret elided streams as given —
// the program's steal metadata hands it the canonical program — both for a
// one-shot RunCompiled and for a session window. Under -race the fold kernel
// turns any such overlap into a report, and into wrong values.
//
// The metadata is memoised on the program and shared by whoever runs it, so
// the one program is run on two armed engines and windowed through a third
// engine's session at the same time: the first requests race, and every
// replay must still match the sequential oracle.
func TestElidedProgramOnArmedEngine(t *testing.T) {
	const (
		workers = 3
		chains  = 4
		tasks   = 400
		reps    = 10
	)
	g := stf.NewGraph("single-owner-chains", chains)
	for i := 0; i < tasks; i++ {
		g.Add(0, i, 0, 0, stf.RW(stf.DataID(i%chains)))
	}
	want := sequentialVals(t, g)
	cp, err := rio.Compile(g, workers, sched.Single(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ops() != tasks {
		t.Fatalf("program has %d micro-ops, want %d: every chain is private to worker 0", cp.Ops(), tasks)
	}
	// The yield hands the processor to the idle thieves between bodies.
	yielding := func(vals []uint64) stf.Kernel {
		fold := enginetest.Fold(vals)
		return func(t *stf.Task, w stf.WorkerID) {
			fold(t, w)
			runtime.Gosched()
		}
	}
	armed := func() *core.Engine {
		eng, err := core.New(core.Options{Workers: workers, Steal: &stf.StealPolicy{}})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	var stolen atomic.Int64
	var wg sync.WaitGroup
	for e := 0; e < 2; e++ {
		eng := armed()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				got := make([]uint64, chains)
				if err := eng.RunCompiled(cp, yielding(got)); err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want) {
					t.Errorf("run %d: final data %x, sequential %x", rep, got, want)
				}
				p := eng.Progress()
				if n := p.Executed(); n != tasks {
					t.Errorf("run %d: executed %d tasks, want %d", rep, n, tasks)
				}
				stolen.Add(p.Stolen())
			}
		}()
	}

	eng := armed()
	ss, err := eng.OpenSession(chains, 0)
	if err != nil {
		t.Fatal(err)
	}
	touched := []stf.DataID{0, 1, 2, 3}
	for rep := 0; rep < reps; rep++ {
		got := make([]uint64, chains)
		if err := ss.Flush(core.WindowRun{Tasks: g.Tasks, Kernel: yielding(got), Compiled: cp, Touched: touched}); err != nil {
			t.Fatal(err)
		}
		if err := ss.Drain(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("session window %d: final data %x, sequential %x", rep, got, want)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	p := eng.Progress()
	if stolen.Add(p.Stolen()) == 0 {
		t.Errorf("no task was stolen in %d armed replays: the test did not exercise the thieves", 3*reps)
	}
}
