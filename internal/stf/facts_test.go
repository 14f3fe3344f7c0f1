package stf_test

import (
	"testing"

	"rio/internal/stf"
)

// TestProgramFacts: every lowering records whether some stream holds a data
// micro-op and whether some task has a reduction, and the facts agree with
// the streams it emitted. A program assembled by hand claims neither fact,
// so it runs as one that has both.
func TestProgramFacts(t *testing.T) {
	plain := stf.NewGraph("plain", 2) // two writers of each datum
	plain.Add(0, 0, 0, 0, stf.W(0))
	plain.Add(0, 1, 0, 0, stf.W(1))
	plain.Add(0, 2, 0, 0, stf.RW(0), stf.R(1))
	plain.Add(0, 3, 0, 0, stf.RW(1))
	reds := stf.NewGraph("reductions", 1) // reductions only: uncontended at any width
	for i := range 6 {
		reds.Add(0, i, 0, 0, stf.Red(0))
	}
	mixed := compileGraph() // a contended write and a reduction
	owners := func(g *stf.Graph, p int) []stf.WorkerID {
		o := make([]stf.WorkerID, len(g.Tasks))
		for i := range o {
			o[i] = stf.WorkerID(i % p)
		}
		return o
	}

	type lowering struct {
		name string
		cp   func() (*stf.CompiledProgram, error)
		// want: some stream holds a data micro-op; some task reduces.
		dataOps, reductions bool
	}
	var cases []lowering
	for _, c := range []struct {
		g                   *stf.Graph
		wideOps, reductions bool // at two workers, elided
	}{{plain, true, false}, {reds, false, true}, {mixed, true, true}} {
		g := c.g
		cases = append(cases,
			lowering{g.Name + "/one worker", func() (*stf.CompiledProgram, error) { return stf.Compile(g, nil, 1, nil) }, false, c.reductions},
			lowering{g.Name + "/owned, one worker", func() (*stf.CompiledProgram, error) { return stf.CompileOwned(g, nil, 1, nil) }, false, c.reductions},
			lowering{g.Name + "/two workers", func() (*stf.CompiledProgram, error) { return stf.Compile(g, cyclic(2), 2, nil) }, c.wideOps, c.reductions},
			lowering{g.Name + "/owned, two workers", func() (*stf.CompiledProgram, error) { return stf.CompileOwned(g, owners(g, 2), 2, nil) }, c.wideOps, c.reductions},
			lowering{g.Name + "/canonical, one worker", func() (*stf.CompiledProgram, error) { return stf.CompileCanonical(g, nil, 1, nil) }, len(g.Tasks) > 0, c.reductions},
			lowering{g.Name + "/re-lowered canonical", func() (*stf.CompiledProgram, error) {
				cp, err := stf.Compile(g, nil, 1, nil)
				if err != nil {
					return nil, err
				}
				return cp.Canonical(), nil
			}, true, c.reductions},
		)
	}
	for _, c := range cases {
		cp, err := c.cp()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := stf.HasDataOps(cp); got != c.dataOps {
			t.Errorf("%s: HasDataOps = %v, want %v", c.name, got, c.dataOps)
		}
		if got := stf.HasReductions(cp); got != c.reductions {
			t.Errorf("%s: HasReductions = %v, want %v", c.name, got, c.reductions)
		}
		streamOps := false
		for _, s := range cp.Streams {
			for in := range stf.Decode(s) {
				streamOps = streamOps || in.Op != stf.OpExec
			}
		}
		if streamOps && !stf.HasDataOps(cp) {
			t.Errorf("%s: a stream holds a data micro-op the program's facts deny", c.name)
		}
	}

	var hand stf.CompiledProgram
	if !stf.HasDataOps(&hand) || !stf.HasReductions(&hand) {
		t.Error("a hand-built program claims to have no data micro-op or no reduction")
	}
}
