package rio_test

import (
	"errors"
	"strings"
	"testing"

	"rio"
)

// TestPublicEntriesCheckUnvalidatedGraphs: rio-serve checks a submitted
// flow once, as it reads it, and its later stages take the flow as
// checked. The public entry points are handed graphs nobody checked, and
// each still reports a malformed one: rio.Compile (the one-worker default
// lowering, which needs no analysis, included, and with pruning, which
// panicked on such a graph before it was checked) as an error, rio.Verify
// as a RIO-V001 finding, and Options.Preflight as a rejecting report.
func TestPublicEntriesCheckUnvalidatedGraphs(t *testing.T) {
	good := func() *rio.Graph {
		return &rio.Graph{Name: "checked", NumData: 2, Tasks: []rio.Task{
			{ID: 0, Accesses: []rio.Access{rio.Write(0)}},
			{ID: 1, Accesses: []rio.Access{rio.Read(0), rio.Write(1)}},
		}}
	}
	cp, err := rio.Compile(good(), 2, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// §3.5 pruning is computed before the lowering's checks run: an owner
	// out of range is an error there too, not a panic.
	if _, err := rio.Compile(good(), 2, func(rio.TaskID) rio.WorkerID { return 5 }, true); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Compile under a mapping out of range = %v, want the range error", err)
	}
	for name, spoil := range map[string]func(g *rio.Graph){
		"data out of range": func(g *rio.Graph) { g.Tasks[1].Accesses[1].Data = 2 },
		"repeated datum":    func(g *rio.Graph) { g.Tasks[1].Accesses[1].Data = 0 },
		"no mode":           func(g *rio.Graph) { g.Tasks[1].Accesses[0].Mode = 0 },
		"task out of place": func(g *rio.Graph) { g.Tasks[1].ID = 3 },
	} {
		g := good()
		spoil(g)
		for _, workers := range []int{1, 2} {
			for _, prune := range []bool{false, true} {
				if _, err := rio.Compile(g, workers, nil, prune); err == nil || !strings.Contains(err.Error(), "stf: compile: stf: task") {
					t.Errorf("%s: Compile at %d workers (prune %v) = %v, want the graph's structural error", name, workers, prune, err)
				}
			}
		}
		if rep := rio.Verify(g, cp, nil, nil); !rep.Has("RIO-V001") {
			t.Errorf("%s: Verify found %v, want RIO-V001", name, rep.Findings)
		}
		for _, workers := range []int{1, 2} {
			eng, err := rio.NewEngine(rio.Options{Workers: workers, Preflight: rio.PreflightAccess | rio.PreflightMapping})
			if err != nil {
				t.Fatal(err)
			}
			var pf *rio.PreflightError
			if err := eng.RunGraph(g, func(*rio.Task, rio.WorkerID) {}); !errors.As(err, &pf) || pf.Report.Errors == 0 {
				t.Errorf("%s: Preflight at %d workers = %v, want a report with structural errors", name, workers, err)
			}
		}
	}
}
