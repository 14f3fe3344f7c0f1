package analyze

import (
	"math/rand"
	"reflect"
	"testing"

	"rio/internal/enginetest"
	"rio/internal/sched"
	"rio/internal/stf"
)

// referenceAccessPass is the access lint as it was while it walked the
// flow twice — once to learn which data any task writes, once to lint —
// and emitted every finding as it met it. It lives only here.
func referenceAccessPass(rep *Report, g *stf.Graph) {
	type dataState struct {
		touched      bool
		written      bool
		pendingWrite stf.TaskID
		reported     bool
	}
	states := make([]dataState, g.NumData)
	for i := range states {
		states[i].pendingWrite = stf.NoTask
	}
	writtenEver := make([]bool, g.NumData)
	for i := range g.Tasks {
		for _, a := range g.Tasks[i].Accesses {
			if a.Mode.Writes() || a.Mode.Commutes() {
				writtenEver[a.Data] = true
			}
		}
	}
	deadWrites, uninitReads, accumReads := 0, 0, 0
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for _, a := range t.Accesses {
			st := &states[a.Data]
			st.touched = true
			reads := a.Mode.Reads() || a.Mode.Commutes()
			writes := a.Mode.Writes() || a.Mode.Commutes()
			if reads && !st.written && !st.reported {
				switch {
				case a.Mode == stf.ReadOnly && writtenEver[a.Data]:
					st.reported = true
					uninitReads++
					if uninitReads <= capPerCode {
						rep.addf(CodeUninitRead, Warning, t.ID, a.Data, NoID,
							"read of data %d before any task wrote it (first write comes later in the flow)", a.Data)
					}
				case a.Mode != stf.ReadOnly:
					st.reported = true
					accumReads++
					if accumReads <= capPerCode {
						rep.addf(CodeAccumulateRead, Info, t.ID, a.Data, NoID,
							"first access to data %d is a read-modify (%s): assumed externally initialized", a.Data, a.Mode)
					}
				}
			}
			if a.Mode == stf.WriteOnly && st.pendingWrite != stf.NoTask {
				deadWrites++
				if deadWrites <= capPerCode {
					rep.addf(CodeDeadWrite, Warning, st.pendingWrite, a.Data, NoID,
						"write to data %d by task %d is dead: overwritten by task %d with no read in between",
						a.Data, st.pendingWrite, t.ID)
				}
			}
			if reads {
				st.pendingWrite = stf.NoTask
			}
			if writes {
				st.written = true
				st.pendingWrite = t.ID
			}
		}
	}
	if extra := deadWrites - capPerCode; extra > 0 {
		rep.addf(CodeDeadWrite, Warning, NoID, NoID, NoID, "%d more dead write(s) not listed", extra)
	}
	if extra := uninitReads - capPerCode; extra > 0 {
		rep.addf(CodeUninitRead, Warning, NoID, NoID, NoID, "%d more uninitialized read(s) not listed", extra)
	}
	if extra := accumReads - capPerCode; extra > 0 {
		rep.addf(CodeAccumulateRead, Info, NoID, NoID, NoID, "%d more read-modify first access(es) not listed", extra)
	}
	unused := 0
	for d := range states {
		if !states[d].touched {
			unused++
			if unused <= capPerCode {
				rep.addf(CodeUnusedData, Info, NoID, stf.DataID(d), NoID,
					"data %d is registered but never accessed", d)
			}
		}
	}
	if extra := unused - capPerCode; extra > 0 {
		rep.addf(CodeUnusedData, Info, NoID, NoID, NoID, "%d more unused data object(s) not listed", extra)
	}
}

// TestAccessLintMatchesReference: the lint the preflight walk feeds one
// access at a time reports what the two-walk lint reported, finding for
// finding and in the same order, alone and beside the mapping pass's
// feasibility check — on random flows (reads before writes, dead writes,
// reductions, untouched data, and flows past the listing cap) and on the
// workload catalogue.
func TestAccessLintMatchesReference(t *testing.T) {
	var flows []*stf.Graph
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 100; i++ {
		flows = append(flows, enginetest.RandomGraph(rng, 40, 8), enginetest.RandomGraphWithReductions(rng, 40, 8),
			enginetest.RandomGraphWithReductions(rng, 400, 80))
	}
	for _, wl := range []string{"lu", "cholesky", "gemm", "wavefront", "chain", "independent", "random", "tree", "forkjoin"} {
		g, err := WorkloadGraph(wl, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, g)
	}
	listed, capped := 0, 0
	for i, g := range flows {
		p := 2 + i%3
		for _, passes := range []Passes{PassAccess, PassAccess | PassMapping} {
			cfg := Config{Passes: passes, Workers: p, Mapping: sched.Cyclic(p), InOrder: true}
			got := Graph(g, cfg)
			want := &Report{NumData: g.NumData, Tasks: len(g.Tasks)}
			referenceAccessPass(want, g)
			if passes&PassMapping != 0 {
				cfg.Passes = PassMapping
				graphPasses(want, g, cfg)
			}
			if want.finish(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d tasks, passes %b: report\n%+v\nreference\n%+v", g.Name, len(g.Tasks), passes, got, want)
			}
			for _, f := range got.Findings {
				switch {
				case f.Code == CodeUninitRead && f.Task == NoID:
					capped++
				case f.Code == CodeUninitRead:
					listed++
				}
			}
		}
	}
	if listed < 100 || capped == 0 {
		t.Errorf("%d uninitialized reads listed and %d reports past the cap: too few to compare their order", listed, capped)
	}
}
