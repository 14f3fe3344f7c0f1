package core

// White-box tests of bare programs (flow.bare): an unarmed compiled run of a
// program with no data micro-op and no reduction borrows its state over no
// data, so it clears no cell and no local mirror, and a program without
// reductions skips the per-task scan for reduction locks. Every other run
// must still find the cells it reads idle, and every run must match the
// sequential oracle.

import (
	"testing"

	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// reductionsOnly is a flow whose every access is a reduction, spread over
// both workers of a cyclic mapping: no datum is contended, so every
// lowering is bare exec words, yet the bodies of each datum's reductions
// must still not overlap.
func reductionsOnly() *stf.Graph {
	g := stf.NewGraph("reductions-only", 4)
	for i := range 64 {
		g.Add(0, i, 0, 0, stf.Red(stf.DataID(i%4)))
	}
	return g
}

func mustCompile(t *testing.T, g *stf.Graph, m stf.Mapping, p int) *stf.CompiledProgram {
	t.Helper()
	cp, err := stf.Compile(g, m, p, nil)
	if err != nil {
		t.Fatalf("compile %s at %d workers: %v", g.Name, p, err)
	}
	return cp
}

// bareProgram is one program of the tests below, with what its run must
// borrow: no data when it is bare.
type bareProgram struct {
	name string
	g    *stf.Graph
	cp   *stf.CompiledProgram
	bare bool
}

func bareMix(t *testing.T, p int) []bareProgram {
	chol, rounds, reds := graphs.Cholesky(6), graphs.ReduceRounds(4, 6), reductionsOnly()
	progs := []bareProgram{
		{"bare", chol, mustCompile(t, chol, nil, 1), true},
		{"contended", chol, mustCompile(t, chol, sched.Cyclic(p), p), false},
		{"contended reductions", rounds, mustCompile(t, rounds, sched.Cyclic(p), p), false},
		{"bare with reductions, one worker", rounds, mustCompile(t, rounds, nil, 1), false},
		{"bare with reductions, two workers", reds, mustCompile(t, reds, sched.Cyclic(p), p), false},
	}
	for _, pr := range progs {
		if f := (flow{cp: pr.cp}); f.bare() != pr.bare {
			t.Fatalf("%s: flow.bare() = %v, want %v", pr.name, f.bare(), pr.bare)
		}
	}
	if reds := progs[len(progs)-1].cp; stf.HasDataOps(reds) || !stf.HasReductions(reds) {
		t.Fatal("the reductions-only flow does not lower to bare streams with reductions")
	}
	return progs
}

// TestBareRunsMatchSequential alternates bare, contended and reduction
// programs on one engine, whose runs pass one pooled state along: every
// borrow must be idle over the data its run reads — none for a bare run —
// and every run must match the sequential oracle.
func TestBareRunsMatchSequential(t *testing.T) {
	const p = 2
	progs := bareMix(t, p)
	e, err := New(Options{Workers: p})
	if err != nil {
		t.Fatal(err)
	}
	var cur bareProgram
	seen := map[*runState]bool{}
	reused := 0
	e.borrowed = func(st *runState, numData int) {
		assertIdle(t, st, numData)
		if want := cur.g.NumData; cur.bare {
			want = 0
			if numData != want {
				t.Errorf("%s: borrowed over %d data, want %d", cur.name, numData, want)
			}
		} else if numData != want {
			t.Errorf("%s: borrowed over %d data, want %d", cur.name, numData, want)
		}
		if seen[st] {
			reused++
		}
		seen[st] = true
	}
	for round := range 3 {
		for _, pr := range progs {
			cur = pr
			if err := enginetest.CheckCompiled(e, pr.g, pr.cp); err != nil {
				t.Fatalf("round %d, %s: %v", round, pr.name, err)
			}
		}
	}
	if reused == 0 {
		t.Errorf("%d states for %d runs: no run borrowed a state an earlier one gave back", len(seen), 3*len(progs))
	}
}

// cellWords is what a run's cells and local mirrors hold over numData data.
type cellWords struct {
	shared [][3]int64
	local  []localState
}

func readCells(st *runState, numData int) cellWords {
	var c cellWords
	for d := range st.shared[:numData] {
		sh := &st.shared[d]
		c.shared = append(c.shared, [3]int64{sh.lastExecutedWrite.Load(), sh.nbReadsSinceWrite.Load(), sh.nbRedsSinceWrite.Load()})
	}
	c.local = append(c.local, st.arena.backing...)
	return c
}

// TestBareBorrowClearsNothing: a contended run leaves its cells as its last
// terminates set them; the bare run after it borrows that state without
// clearing any of it, and hands its workers no cell; the contended run after
// that still starts from idle cells.
func TestBareBorrowClearsNothing(t *testing.T) {
	const p = 2
	g := graphs.Cholesky(6)
	contended, bare := mustCompile(t, g, sched.Cyclic(p), p), mustCompile(t, g, nil, 1)
	e, err := New(Options{Workers: p, NoAccounting: true})
	if err != nil {
		t.Fatal(err)
	}
	var dirty *runState
	e.borrowed = func(st *runState, _ int) { dirty = st }
	if err := enginetest.CheckCompiled(e, g, contended); err != nil {
		t.Fatal(err)
	}
	before := readCells(dirty, g.NumData)
	if before.shared[0] == ([3]int64{}) {
		t.Fatal("the contended run left data 0's cell idle: nothing to observe")
	}

	borrows := 0
	e.borrowed = func(st *runState, numData int) {
		borrows++
		if numData != 0 {
			t.Errorf("the bare run borrowed over %d data, want none", numData)
		}
		for w, s := range st.subs[:1] {
			if len(s.shared) != 0 || len(s.local) != 0 {
				t.Errorf("worker %d of the bare run sees %d shared and %d local cells, want none", w, len(s.shared), len(s.local))
			}
		}
		if st != dirty {
			// Only a state lost to the collector between two runs is
			// replaced; there is then nothing to compare.
			t.Logf("the bare run borrowed another state")
			return
		}
		after := readCells(st, g.NumData)
		for d := range before.shared {
			if after.shared[d] != before.shared[d] {
				t.Fatalf("data %d: the bare run's borrow changed its shared cell from %v to %v", d, before.shared[d], after.shared[d])
			}
		}
		for i := range before.local {
			if after.local[i] != before.local[i] {
				t.Fatalf("local mirror %d: the bare run's borrow changed it from %+v to %+v", i, before.local[i], after.local[i])
			}
		}
	}
	if err := enginetest.CheckCompiled(e, g, bare); err != nil {
		t.Fatal(err)
	}
	if borrows != 1 {
		t.Fatalf("the bare run borrowed %d times", borrows)
	}

	e.borrowed = func(st *runState, numData int) {
		if numData != g.NumData {
			t.Errorf("the contended run borrowed over %d data, want %d", numData, g.NumData)
		}
		assertIdle(t, st, numData)
	}
	if err := enginetest.CheckCompiled(e, g, contended); err != nil {
		t.Fatal(err)
	}
}

// TestArmedBareProgramRunsCanonical: an armed engine runs a bare program's
// canonical re-lowering, which reads the cells, so its borrow is the full
// one; and the result matches the oracle.
func TestArmedBareProgramRunsCanonical(t *testing.T) {
	const p = 2
	e, err := New(Options{Workers: p, Mapping: sched.Cyclic(p), Steal: &stf.StealPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	var borrowed int
	e.borrowed = func(st *runState, numData int) {
		borrowed = numData
		assertIdle(t, st, numData)
	}
	for _, g := range []*stf.Graph{graphs.Independent(64), reductionsOnly()} {
		cp := mustCompile(t, g, sched.Cyclic(p), p)
		if stf.HasDataOps(cp) {
			t.Fatalf("%s: the elided lowering holds data micro-ops", g.Name)
		}
		if err := enginetest.CheckCompiled(e, g, cp); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if borrowed != g.NumData {
			t.Errorf("%s: the armed run borrowed over %d data, want %d", g.Name, borrowed, g.NumData)
		}
	}
}
