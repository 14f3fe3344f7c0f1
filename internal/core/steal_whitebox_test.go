package core

import (
	"sync"
	"testing"
	"time"

	"rio/internal/stf"
)

// TestStealStateVictimResolution: the policy's ranked list is deduped and
// self-filtered; an empty list resolves to the neighbor ring after self.
func TestStealStateVictimResolution(t *testing.T) {
	ranked := newStealState(&stf.StealPolicy{Victims: []stf.WorkerID{2, 1, 2, 1, 3}}, 1, 4)
	if got, want := ranked.victims, []stf.WorkerID{2, 3}; !equalVictims(got, want) {
		t.Errorf("ranked victims = %v, want %v", got, want)
	}

	ring := newStealState(&stf.StealPolicy{}, 2, 4)
	if got, want := ring.victims, []stf.WorkerID{3, 0, 1}; !equalVictims(got, want) {
		t.Errorf("neighbor-ring victims = %v, want %v", got, want)
	}
	if len(ring.cursors) != len(ring.victims) {
		t.Errorf("cursors len %d, victims len %d", len(ring.cursors), len(ring.victims))
	}

	solo := newStealState(&stf.StealPolicy{}, 0, 1)
	if len(solo.victims) != 0 {
		t.Errorf("single-worker engine has victims %v", solo.victims)
	}
}

// TestStealMetaSharedByEngines: the steal tables ride on the compiled
// program, so however many engines arm flows of one program at once — the
// first requests race — they all steal by the same metadata, built once,
// and run its canonical program in place of the elided one they were given.
// An unarmed engine's flow carries no metadata and the program as given.
func TestStealMetaSharedByEngines(t *testing.T) {
	single := func(stf.TaskID) stf.WorkerID { return 0 }
	g := stf.NewGraph("private-chain", 1)
	for i := 0; i < 32; i++ {
		g.Add(0, i, 0, 0, stf.RW(0))
	}
	cp, err := stf.Compile(g, single, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Elided == nil {
		t.Fatal("an all-private flow compiled with nothing elided")
	}
	kern := func(*stf.Task, stf.WorkerID) {}
	flows := make([]flow, 8)
	var wg sync.WaitGroup
	for i := range flows {
		e, err := New(Options{Workers: 2, Mapping: single, Steal: &stf.StealPolicy{}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			flows[i] = e.compiledFlow(cp, cp.Tasks, kern)
		}()
	}
	wg.Wait()
	meta := cp.StealMeta()
	if meta.Program == cp || meta.Program.Elided != nil {
		t.Fatal("the metadata's program is not a canonical re-lowering of the elided one")
	}
	for i, f := range flows {
		if f.meta != meta || f.cp != meta.Program {
			t.Errorf("engine %d armed its flow with metadata %p over program %p, want the program's one %p over %p", i, f.meta, f.cp, meta, meta.Program)
		}
	}
	unarmed, err := New(Options{Workers: 2, Mapping: single})
	if err != nil {
		t.Fatal(err)
	}
	if f := unarmed.compiledFlow(cp, cp.Tasks, kern); f.meta != nil || f.cp != cp {
		t.Error("an unarmed engine armed a flow")
	}
}

// TestStealEpochQuiescence: steal state never survives its window. After a
// streaming session drains, every worker's victim cursors must be past
// every claimed task — the end-of-window drain runs before the worker
// exits, so a candidate of window k can never be claimed or executed once
// window k has been joined and its state recycled. The windows here are
// fully skewed with slow tasks, so the cursors are heavily exercised.
func TestStealEpochQuiescence(t *testing.T) {
	const (
		numData = 8
		windows = 6
	)
	single := func(stf.TaskID) stf.WorkerID { return 0 }
	e, err := New(Options{Workers: 3, Mapping: single, Steal: &stf.StealPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := e.OpenSession(numData, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	tasks := make([]stf.Task, numData)
	for i := range tasks {
		tasks[i] = stf.Task{ID: stf.TaskID(i), Accesses: []stf.Access{stf.W(stf.DataID(i))}}
	}
	touched := make([]stf.DataID, numData)
	for i := range touched {
		touched[i] = stf.DataID(i)
	}
	kern := func(*stf.Task, stf.WorkerID) { time.Sleep(100 * time.Microsecond) }
	shape, err := stf.Compile(&stf.Graph{NumData: numData, Tasks: tasks}, single, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	for w := 0; w < windows; w++ {
		if err := ss.Flush(WindowRun{Tasks: tasks, Kernel: kern, Compiled: shape, Touched: touched}); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if err := ss.Drain(); err != nil {
			t.Fatalf("drain after window %d: %v", w, err)
		}
		// The window is joined: every worker finished its replay AND its
		// steal drain. Any candidate still unclaimed here could be claimed
		// against recycled counters in the next window.
		for wk, sub := range ss.st.subs {
			if sub.steal == nil {
				t.Fatalf("worker %d has no steal state", wk)
			}
			if !sub.stealDrained() {
				t.Errorf("window %d: worker %d still sees stealable tasks after the join", w, wk)
			}
		}
	}
	if p := ss.prog.Snapshot(); p.Stolen() == 0 {
		t.Error("quiescence test exercised no steals")
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
}

func equalVictims(got, want []stf.WorkerID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
