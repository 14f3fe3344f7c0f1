package stf_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"rio/internal/stf"
)

// compileGraph: a small mixed-mode flow over 3 data objects.
//
//	task 0: W(0)
//	task 1: R(0), W(1)
//	task 2: Red(2)
//	task 3: (no accesses)
//	task 4: RW(1), R(0)
func compileGraph() *stf.Graph {
	g := stf.NewGraph("compile-test", 3)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.R(0), stf.W(1))
	g.Add(0, 2, 0, 0, stf.Red(2))
	g.Add(0, 3, 0, 0)
	g.Add(0, 4, 0, 0, stf.RW(1), stf.R(0))
	return g
}

func cyclic(p int) stf.Mapping {
	return func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(id % stf.TaskID(p)) }
}

func TestCompileStreamStructure(t *testing.T) {
	g := compileGraph()
	// The canonical lowering: every access of every task.
	cp, err := stf.CompileCanonical(g, cyclic(2), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Workers != 2 || cp.NumData != 3 || cp.Name != "compile-test" {
		t.Errorf("header = %d workers, %d data, %q", cp.Workers, cp.NumData, cp.Name)
	}
	if cp.Pruned || cp.Elided != nil {
		t.Errorf("Pruned = %v, Elided = %v on a canonical unpruned program", cp.Pruned, cp.Elided)
	}

	// Worker 0 owns tasks 0, 2, 4; declares 1 (and 3, for free).
	want0 := []stf.Instr{
		{Op: stf.OpGetWrite, Data: 0, Task: 0},
		{Op: stf.OpExec, Task: 0},
		{Op: stf.OpTermWrite, Data: 0, Task: 0},
		{Op: stf.OpDeclareRead, Data: 0, Task: 1},
		{Op: stf.OpDeclareWrite, Data: 1, Task: 1},
		{Op: stf.OpGetRed, Data: 2, Task: 2},
		{Op: stf.OpExec, Task: 2},
		{Op: stf.OpTermRed, Data: 2, Task: 2},
		// task 3: owned by worker 1, no accesses — nothing to emit.
		{Op: stf.OpGetWrite, Data: 1, Task: 4},
		{Op: stf.OpGetRead, Data: 0, Task: 4},
		{Op: stf.OpExec, Task: 4},
		{Op: stf.OpTermWrite, Data: 1, Task: 4},
		{Op: stf.OpTermRead, Data: 0, Task: 4},
	}
	got0 := decode(cp.Streams[0])
	if len(got0) != len(want0) {
		t.Fatalf("worker 0 stream has %d ops, want %d\n%v", len(got0), len(want0), got0)
	}
	for i, in := range got0 {
		if in != want0[i] {
			t.Errorf("worker 0 op %d = %+v, want %+v", i, in, want0[i])
		}
	}

	// Worker 1 owns tasks 1, 3; declares 0, 2, 4.
	want1 := []stf.Instr{
		{Op: stf.OpDeclareWrite, Data: 0, Task: 0},
		{Op: stf.OpGetRead, Data: 0, Task: 1},
		{Op: stf.OpGetWrite, Data: 1, Task: 1},
		{Op: stf.OpExec, Task: 1},
		{Op: stf.OpTermRead, Data: 0, Task: 1},
		{Op: stf.OpTermWrite, Data: 1, Task: 1},
		{Op: stf.OpDeclareRed, Data: 2, Task: 2},
		{Op: stf.OpExec, Task: 3},
		{Op: stf.OpDeclareWrite, Data: 1, Task: 4},
		{Op: stf.OpDeclareRead, Data: 0, Task: 4},
	}
	got1 := decode(cp.Streams[1])
	if len(got1) != len(want1) {
		t.Fatalf("worker 1 stream has %d ops, want %d\n%v", len(got1), len(want1), got1)
	}
	for i, in := range got1 {
		if in != want1[i] {
			t.Errorf("worker 1 op %d = %+v, want %+v", i, in, want1[i])
		}
	}

	if s := cp.Stats[0]; s.Executed != 3 || s.Declared != 2 {
		t.Errorf("worker 0 stats = %+v, want {3 2}", s)
	}
	if s := cp.Stats[1]; s.Executed != 2 || s.Declared != 3 {
		t.Errorf("worker 1 stats = %+v, want {2 3}", s)
	}
	if cp.Ops() != len(want0)+len(want1) {
		t.Errorf("Ops() = %d, want %d", cp.Ops(), len(want0)+len(want1))
	}
	// One task word per group that does not open with its exec: tasks 0,
	// 1, 2, 4 on worker 0; 0, 1, 2, 4 on worker 1 (task 3 is its exec).
	if n0, n1 := len(cp.Streams[0]), len(cp.Streams[1]); n0 != len(want0)+4 || n1 != len(want1)+4 {
		t.Errorf("streams hold %d and %d words, want %d and %d", n0, n1, len(want0)+4, len(want1)+4)
	}
}

func decode(s []stf.Word) []stf.Instr { return slices.Collect(stf.Decode(s)) }

// TestCompileElidesUncontendedData: data 2 of compileGraph is touched by
// one reduction only, so the default lowering drops its micro-ops from both
// streams and says so; data 0 and 1 cross workers and keep theirs. Task
// counts do not move, and Canonical restores the full lowering.
func TestCompileElidesUncontendedData(t *testing.T) {
	g := compileGraph()
	cp, err := stf.Compile(g, cyclic(2), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := stf.CompileCanonical(g, cyclic(2), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, false, true}; !reflect.DeepEqual(cp.Elided, want) {
		t.Fatalf("Elided = %v, want %v", cp.Elided, want)
	}
	for w := range canon.Streams {
		var want []stf.Instr
		for in := range stf.Decode(canon.Streams[w]) {
			if in.Op == stf.OpExec || in.Data != 2 {
				want = append(want, in)
			}
		}
		if got := decode(cp.Streams[w]); !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d stream = %v, want the canonical one minus data 2: %v", w, got, want)
		}
		if cap(cp.Streams[w]) != len(cp.Streams[w]) {
			t.Errorf("worker %d stream holds %d words in room for %d: sized before elision", w, len(cp.Streams[w]), cap(cp.Streams[w]))
		}
	}
	if !reflect.DeepEqual(cp.Stats, canon.Stats) {
		t.Errorf("Stats = %+v, want the canonical %+v (they count tasks)", cp.Stats, canon.Stats)
	}
	if got := cp.Canonical(); !reflect.DeepEqual(got, canon) {
		t.Errorf("Canonical() = %+v, want %+v", got, canon)
	}
	if canon.Canonical() != canon {
		t.Error("Canonical() of a canonical program is not the program itself")
	}
}

// TestCompileElisionClasses walks the definition: a data object keeps its
// micro-ops iff two tasks of different workers conflict on it.
func TestCompileElisionClasses(t *testing.T) {
	acc := func(d stf.DataID, modes ...stf.AccessMode) *stf.Graph {
		g := stf.NewGraph("class", 1)
		for _, m := range modes {
			g.Add(0, 0, 0, 0, stf.Access{Data: d, Mode: m})
		}
		return g
	}
	const R, W, RW, Red = stf.ReadOnly, stf.WriteOnly, stf.ReadWrite, stf.Reduction
	single := func(stf.TaskID) stf.WorkerID { return 1 }
	cases := []struct {
		name   string
		g      *stf.Graph
		m      stf.Mapping
		elided bool
	}{
		{"single-owner chain", acc(0, W, RW, R, Red, W), single, true},
		{"never written", acc(0, R, R, R), cyclic(2), true},
		{"reduction only", acc(0, Red, Red, Red), cyclic(2), true},
		{"write then foreign read", acc(0, W, R), cyclic(2), false},
		{"read then foreign write", acc(0, R, W), cyclic(2), false},
		{"two writers", acc(0, W, W), cyclic(2), false},
		{"reduction against foreign read", acc(0, Red, R), cyclic(2), false},
		{"reduction against foreign write", acc(0, Red, W), cyclic(2), false},
	}
	for _, tc := range cases {
		cp, err := stf.Compile(tc.g, tc.m, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cp.Elided != nil && cp.Elided[0]; got != tc.elided {
			t.Errorf("%s: elided = %v, want %v", tc.name, got, tc.elided)
		}
		if tc.elided && cp.Ops() != len(tc.g.Tasks) {
			t.Errorf("%s: %d micro-ops, want one exec per task (%d)", tc.name, cp.Ops(), len(tc.g.Tasks))
		}
	}
	// A data object nobody accesses is not listed.
	if cp, _ := stf.Compile(stf.NewGraph("empty", 3), cyclic(2), 2, nil); cp.Elided != nil {
		t.Errorf("Elided = %v for a flow without accesses, want nil", cp.Elided)
	}
}

// Foreign tasks without accesses cost a full submission under closure
// replay but zero micro-ops compiled — the core of the Fig 7 win.
func TestCompileAccessFreeForeignTasksAreFree(t *testing.T) {
	g := stf.NewGraph("independent", 0)
	for i := 0; i < 100; i++ {
		g.Add(0, i, 0, 0)
	}
	cp, err := stf.Compile(g, cyclic(4), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w, s := range cp.Streams {
		if len(s) != 25 {
			t.Errorf("worker %d: %d ops, want 25 (own execs only)", w, len(s))
		}
		for in := range stf.Decode(s) {
			if in.Op != stf.OpExec {
				t.Errorf("worker %d: unexpected op %v", w, in.Op)
			}
		}
		if cp.Stats[w].Executed != 25 || cp.Stats[w].Declared != 75 {
			t.Errorf("worker %d stats = %+v", w, cp.Stats[w])
		}
	}
}

func TestCompilePruning(t *testing.T) {
	g := compileGraph()
	// Hand-built relevance: worker 0 keeps everything; worker 1 keeps only
	// its own tasks (1 and 3) plus task 0 (writes data 0, read by task 1).
	rel := [][]bool{
		{true, true, true, true, true},
		{true, true, false, true, false},
	}
	cp, err := stf.Compile(g, cyclic(2), 2, rel)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Pruned {
		t.Error("Pruned not set")
	}
	for in := range stf.Decode(cp.Streams[1]) {
		if in.Task == 2 || in.Task == 4 {
			t.Errorf("pruned task %d appears in worker 1 stream: %+v", in.Task, in)
		}
	}
	// Pruned tasks count as neither executed nor declared.
	if s := cp.Stats[1]; s.Executed != 2 || s.Declared != 1 {
		t.Errorf("worker 1 stats = %+v, want {2 1}", s)
	}
}

func TestCompileErrors(t *testing.T) {
	g := compileGraph()
	cases := []struct {
		name    string
		g       *stf.Graph
		m       stf.Mapping
		workers int
		rel     [][]bool
		want    string
	}{
		{"zero-workers", g, cyclic(2), 0, nil, "workers"},
		{"nil-mapping", g, nil, 2, nil, "nil mapping"},
		{"shared-worker", g, func(stf.TaskID) stf.WorkerID { return stf.SharedWorker }, 2, nil, "SharedWorker"},
		{"owner-out-of-range", g, cyclic(4), 2, nil, "out of range"},
		{"negative-owner", g, func(stf.TaskID) stf.WorkerID { return -5 }, 2, nil, "out of range"},
		{"bitmap-worker-count", g, cyclic(2), 2, [][]bool{{true, true, true, true, true}}, "bitmaps"},
		{"bitmap-task-count", g, cyclic(2), 2, [][]bool{{true}, {true}}, "bitmap covers"},
		{"invalid-graph", &stf.Graph{NumData: 0, Tasks: []stf.Task{{ID: 0, Accesses: []stf.Access{stf.R(9)}}}}, cyclic(1), 1, nil, "out of range"},
	}
	for _, tc := range cases {
		_, err := stf.Compile(tc.g, tc.m, tc.workers, tc.rel)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestOpCodeString(t *testing.T) {
	ops := map[stf.OpCode]string{
		stf.OpDeclareRead:  "declare_read",
		stf.OpDeclareWrite: "declare_write",
		stf.OpDeclareRed:   "declare_red",
		stf.OpGetRead:      "get_read",
		stf.OpGetWrite:     "get_write",
		stf.OpGetRed:       "get_red",
		stf.OpExec:         "exec",
		stf.OpTermRead:     "terminate_read",
		stf.OpTermWrite:    "terminate_write",
		stf.OpTermRed:      "terminate_red",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if s := stf.OpCode(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown opcode String() = %q", s)
	}
}
