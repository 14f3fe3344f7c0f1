package rio

// White-box tests of the engine's compile-miss pipeline.

import (
	"reflect"
	"slices"
	"testing"

	"rio/internal/stf"
)

// TestLowerSelectsCanonicalWhenArmed pins both sides of the one selection
// in Engine.lower, on the shape of the ledger's skew-steal workload (RW
// chains, every task on worker 0 — every datum single-owner). Unarmed, the
// whole flow collapses to execs. Armed, the streams are the canonical
// lowering micro-op for micro-op — written out here by hand from
// Algorithm 1, not taken from the compiler — because any of these tasks may
// run on a thief.
func TestLowerSelectsCanonicalWhenArmed(t *testing.T) {
	const (
		workers = 3
		chains  = 4
		tasks   = 40
	)
	g := stf.NewGraph("skew", chains)
	for i := 0; i < tasks; i++ {
		g.Add(0, i, 0, 0, stf.RW(stf.DataID(i%chains)))
	}
	single := func(TaskID) WorkerID { return 0 }

	want := make([][]stf.Instr, workers)
	for i := 0; i < tasks; i++ {
		d, id := stf.DataID(i%chains), int32(i)
		want[0] = append(want[0],
			stf.Instr{Op: stf.OpGetWrite, Data: d, Task: id},
			stf.Instr{Op: stf.OpExec, Task: id},
			stf.Instr{Op: stf.OpTermWrite, Data: d, Task: id})
		for w := 1; w < workers; w++ {
			want[w] = append(want[w], stf.Instr{Op: stf.OpDeclareWrite, Data: d, Task: id})
		}
	}

	armed, err := NewEngine(Options{Workers: workers, Mapping: single, Steal: &StealPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := armed.lower(g, single)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]stf.Instr, workers)
	for w, s := range cp.Streams {
		got[w] = slices.Collect(stf.Decode(s))
	}
	if cp.Elided != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("armed lowering is not canonical: Elided = %v, streams %v", cp.Elided, got)
	}

	unarmed, err := NewEngine(Options{Workers: workers, Mapping: single})
	if err != nil {
		t.Fatal(err)
	}
	cp, err = unarmed.lower(g, single)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ops() != tasks || len(cp.Streams[0]) != tasks {
		t.Errorf("unarmed lowering has %d micro-ops (%d on worker 0), want %d execs on worker 0", cp.Ops(), len(cp.Streams[0]), tasks)
	}
	// Task counts are the lowering's to keep: nobody declares less.
	for w := 1; w < workers; w++ {
		if got := cp.Stats[w].Declared; got != tasks {
			t.Errorf("worker %d declares %d tasks, want %d", w, got, tasks)
		}
	}
}
