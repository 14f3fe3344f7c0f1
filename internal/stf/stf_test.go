package stf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccessModeString(t *testing.T) {
	cases := map[AccessMode]string{
		None: "None", ReadOnly: "R", WriteOnly: "W", ReadWrite: "RW",
		Reduction:      "Red",
		AccessMode(42): "AccessMode(42)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestAccessModePredicates(t *testing.T) {
	cases := []struct {
		m                       AccessMode
		reads, writes, commutes bool
	}{
		{None, false, false, false},
		{ReadOnly, true, false, false},
		{WriteOnly, false, true, false},
		{ReadWrite, true, true, false},
		{Reduction, false, false, true},
	}
	for _, c := range cases {
		if c.m.Reads() != c.reads {
			t.Errorf("%v.Reads() = %v, want %v", c.m, c.m.Reads(), c.reads)
		}
		if c.m.Writes() != c.writes {
			t.Errorf("%v.Writes() = %v, want %v", c.m, c.m.Writes(), c.writes)
		}
		if c.m.Commutes() != c.commutes {
			t.Errorf("%v.Commutes() = %v, want %v", c.m, c.m.Commutes(), c.commutes)
		}
	}
}

func TestAccessConstructors(t *testing.T) {
	if a := R(3); a.Data != 3 || a.Mode != ReadOnly {
		t.Errorf("R(3) = %+v", a)
	}
	if a := W(4); a.Data != 4 || a.Mode != WriteOnly {
		t.Errorf("W(4) = %+v", a)
	}
	if a := RW(5); a.Data != 5 || a.Mode != ReadWrite {
		t.Errorf("RW(5) = %+v", a)
	}
}

func TestGraphAddAssignsSequentialIDs(t *testing.T) {
	g := NewGraph("t", 2)
	for i := 0; i < 5; i++ {
		if id := g.Add(0, i, 0, 0, R(0)); id != TaskID(i) {
			t.Fatalf("Add #%d returned ID %d", i, id)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGraphValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"out-of-range data", &Graph{NumData: 1, Tasks: []Task{{ID: 0, Accesses: []Access{R(1)}}}}},
		{"negative data", &Graph{NumData: 1, Tasks: []Task{{ID: 0, Accesses: []Access{R(-1)}}}}},
		{"none mode", &Graph{NumData: 1, Tasks: []Task{{ID: 0, Accesses: []Access{{Data: 0, Mode: None}}}}}},
		{"mode past Reduction", &Graph{NumData: 1, Tasks: []Task{{ID: 0, Accesses: []Access{{Data: 0, Mode: Reduction + 1}}}}}},
		{"duplicate data", &Graph{NumData: 1, Tasks: []Task{{ID: 0, Accesses: []Access{R(0), W(0)}}}}},
		{"duplicate data in a long list", &Graph{NumData: 2 * dupScanMax, Tasks: []Task{{ID: 0, Accesses: longAccessList(2*dupScanMax, 5)}}}},
		{"bad id", &Graph{NumData: 1, Tasks: []Task{{ID: 7}}}},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid graph", c.name)
		}
	}
}

// longAccessList reads data 0..n-1 in order, except that position n-1
// repeats datum dup: one duplicate at the far end of a list long enough to
// take checkAccesses' set path.
func longAccessList(n int, dup DataID) []Access {
	accesses := make([]Access, n)
	for i := range accesses {
		accesses[i] = R(DataID(i))
	}
	accesses[n-1] = R(dup)
	return accesses
}

func TestDependenciesReadAfterWrite(t *testing.T) {
	g := NewGraph("raw", 1)
	g.Add(0, 0, 0, 0, W(0)) // task 0 writes
	g.Add(0, 0, 0, 0, R(0)) // task 1 reads
	g.Add(0, 0, 0, 0, R(0)) // task 2 reads
	deps := g.Dependencies()
	if len(deps[0]) != 0 {
		t.Errorf("task 0 deps = %v, want none", deps[0])
	}
	for _, id := range []TaskID{1, 2} {
		if len(deps[id]) != 1 || deps[id][0] != 0 {
			t.Errorf("task %d deps = %v, want [0]", id, deps[id])
		}
	}
}

func TestDependenciesWriteAfterReads(t *testing.T) {
	g := NewGraph("war", 1)
	g.Add(0, 0, 0, 0, W(0)) // 0
	g.Add(0, 0, 0, 0, R(0)) // 1
	g.Add(0, 0, 0, 0, R(0)) // 2
	g.Add(0, 0, 0, 0, W(0)) // 3: waits for both readers (which imply task 0)
	deps := g.Dependencies()
	if got := deps[3]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("task 3 deps = %v, want [1 2]", got)
	}
}

func TestDependenciesWriteAfterWrite(t *testing.T) {
	g := NewGraph("waw", 1)
	g.Add(0, 0, 0, 0, W(0))
	g.Add(0, 0, 0, 0, W(0))
	deps := g.Dependencies()
	if got := deps[1]; len(got) != 1 || got[0] != 0 {
		t.Errorf("task 1 deps = %v, want [0]", got)
	}
}

func TestDependenciesReadWriteChains(t *testing.T) {
	// RW behaves as both a read (depends on last write) and a write
	// (next readers/writers depend on it).
	g := NewGraph("rw", 1)
	g.Add(0, 0, 0, 0, RW(0)) // 0
	g.Add(0, 0, 0, 0, RW(0)) // 1
	g.Add(0, 0, 0, 0, R(0))  // 2
	deps := g.Dependencies()
	if got := deps[1]; len(got) != 1 || got[0] != 0 {
		t.Errorf("task 1 deps = %v, want [0]", got)
	}
	if got := deps[2]; len(got) != 1 || got[0] != 1 {
		t.Errorf("task 2 deps = %v, want [1]", got)
	}
}

func TestDependenciesIndependentData(t *testing.T) {
	g := NewGraph("ind", 2)
	g.Add(0, 0, 0, 0, W(0))
	g.Add(0, 0, 0, 0, W(1))
	deps := g.Dependencies()
	if len(deps[1]) != 0 {
		t.Errorf("tasks on different data must be independent, got %v", deps[1])
	}
}

func TestDependenciesDeduplicated(t *testing.T) {
	// Task 2 reads two data objects both last written by task 0: the
	// dependency list must contain 0 exactly once.
	g := NewGraph("dedup", 2)
	g.Add(0, 0, 0, 0, W(0), W(1))
	g.Add(0, 0, 0, 0, R(0), R(1))
	deps := g.Dependencies()
	if got := deps[1]; len(got) != 1 || got[0] != 0 {
		t.Errorf("task 1 deps = %v, want [0]", got)
	}
}

func TestSuccessorsInverseOfDependencies(t *testing.T) {
	g := NewGraph("succ", 1)
	g.Add(0, 0, 0, 0, W(0))
	g.Add(0, 0, 0, 0, R(0))
	g.Add(0, 0, 0, 0, W(0))
	succs := g.Successors()
	if got := succs[0]; len(got) != 1 || got[0] != 1 {
		t.Errorf("succs[0] = %v, want [1]", got)
	}
	if got := succs[1]; len(got) != 1 || got[0] != 2 {
		t.Errorf("succs[1] = %v, want [2]", got)
	}
	if len(succs[2]) != 0 {
		t.Errorf("succs[2] = %v, want none", succs[2])
	}
}

func TestLevels(t *testing.T) {
	g := NewGraph("levels", 2)
	g.Add(0, 0, 0, 0, W(0))       // level 0
	g.Add(0, 0, 0, 0, W(1))       // level 0
	g.Add(0, 0, 0, 0, R(0), R(1)) // level 1
	g.Add(0, 0, 0, 0, W(0))       // level 2 (after the reader)
	levels, depth := g.Levels()
	want := []int{0, 0, 1, 2}
	for i, l := range levels {
		if l != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, l, want[i])
		}
	}
	if depth != 3 {
		t.Errorf("depth = %d, want 3", depth)
	}
}

func TestLevelsEmptyGraph(t *testing.T) {
	g := NewGraph("empty", 0)
	levels, depth := g.Levels()
	if len(levels) != 0 || depth != 0 {
		t.Errorf("empty graph: levels=%v depth=%d", levels, depth)
	}
}

func TestCheckOrderAcceptsSubmissionOrder(t *testing.T) {
	g := chainGraph(10)
	order := make([]TaskID, 10)
	for i := range order {
		order[i] = TaskID(i)
	}
	if bad := g.CheckOrder(order); bad != NoTask {
		t.Errorf("submission order rejected at task %d", bad)
	}
}

func TestCheckOrderRejectsViolations(t *testing.T) {
	g := chainGraph(3)
	if bad := g.CheckOrder([]TaskID{1, 0, 2}); bad == NoTask {
		t.Error("order violating a write-write chain accepted")
	}
	if bad := g.CheckOrder([]TaskID{0, 1}); bad == NoTask {
		t.Error("incomplete order accepted")
	}
	if bad := g.CheckOrder([]TaskID{0, 0, 1}); bad == NoTask {
		t.Error("duplicated task accepted")
	}
	if bad := g.CheckOrder([]TaskID{0, 5, 1}); bad == NoTask {
		t.Error("out-of-range task accepted")
	}
}

func TestCheckOrderAllowsIndependentPermutations(t *testing.T) {
	g := NewGraph("perm", 2)
	g.Add(0, 0, 0, 0, W(0))
	g.Add(0, 0, 0, 0, W(1))
	if bad := g.CheckOrder([]TaskID{1, 0}); bad != NoTask {
		t.Errorf("independent permutation rejected at %d", bad)
	}
}

func TestConflictFree(t *testing.T) {
	ra := Task{Accesses: []Access{R(0)}}
	rb := Task{Accesses: []Access{R(0)}}
	wa := Task{Accesses: []Access{W(0)}}
	other := Task{Accesses: []Access{W(1)}}
	if !ConflictFree(&ra, &rb) {
		t.Error("two readers must not conflict")
	}
	if ConflictFree(&ra, &wa) {
		t.Error("reader and writer on same data must conflict")
	}
	if ConflictFree(&wa, &wa) {
		t.Error("two writers on same data must conflict")
	}
	if !ConflictFree(&wa, &other) {
		t.Error("writers on different data must not conflict")
	}
}

func TestReplaySubmitsAllTasksInOrder(t *testing.T) {
	g := chainGraph(5)
	rec := &recordingSubmitter{}
	Replay(g, func(*Task, WorkerID) {})(rec)
	if len(rec.ids) != 5 {
		t.Fatalf("replay submitted %d tasks, want 5", len(rec.ids))
	}
	for i, id := range rec.ids {
		if id != TaskID(i) {
			t.Errorf("replay order[%d] = %d", i, id)
		}
	}
}

// chainGraph builds n tasks all writing the same data (a full chain).
func chainGraph(n int) *Graph {
	g := NewGraph("chain", 1)
	for i := 0; i < n; i++ {
		g.Add(0, i, 0, 0, W(0))
	}
	return g
}

type recordingSubmitter struct {
	ids []TaskID
}

func (r *recordingSubmitter) Submit(fn TaskFunc, accesses ...Access) TaskID {
	id := TaskID(len(r.ids))
	r.ids = append(r.ids, id)
	return id
}

func (r *recordingSubmitter) SubmitTask(t *Task, k Kernel) TaskID {
	r.ids = append(r.ids, t.ID)
	return t.ID
}

func (r *recordingSubmitter) Worker() WorkerID { return MasterWorker }
func (r *recordingSubmitter) NumWorkers() int  { return 1 }

// Property: for any randomly generated task flow, the dependency relation
// only points backwards and dependency levels are consistent with it.
func TestDependenciesPropertyBackwardEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomFlow(r, 40, 8)
		deps := g.Dependencies()
		levels, _ := g.Levels()
		for id, ds := range deps {
			for _, d := range ds {
				if d >= TaskID(id) {
					return false
				}
				if levels[d] >= levels[id] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the submission order itself always passes CheckOrder (STF task
// flows are valid sequential executions by construction).
func TestCheckOrderPropertySubmissionOrderValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomFlow(r, 40, 8)
		order := make([]TaskID, len(g.Tasks))
		for i := range order {
			order[i] = TaskID(i)
		}
		return g.CheckOrder(order) == NoTask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a pair of direct-dependency tasks always conflicts (they share
// a data object with at least one write) — dependencies never link
// conflict-free tasks.
func TestDependenciesPropertyImplyConflict(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomFlow(r, 30, 6)
		deps := g.Dependencies()
		for id, ds := range deps {
			for _, d := range ds {
				if ConflictFree(&g.Tasks[id], &g.Tasks[d]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomFlow(r *rand.Rand, maxTasks, maxData int) *Graph {
	n := 1 + r.Intn(maxTasks)
	nd := 1 + r.Intn(maxData)
	g := NewGraph("prop", nd)
	modes := []AccessMode{ReadOnly, WriteOnly, ReadWrite}
	for i := 0; i < n; i++ {
		na := r.Intn(4)
		if na > nd {
			na = nd
		}
		perm := r.Perm(nd)
		accesses := make([]Access, 0, na)
		for _, d := range perm[:na] {
			accesses = append(accesses, Access{Data: DataID(d), Mode: modes[r.Intn(3)]})
		}
		g.Add(0, i, 0, 0, accesses...)
	}
	return g
}
