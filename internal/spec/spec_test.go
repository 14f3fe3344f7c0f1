package spec_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/spec"
	"rio/internal/stf"
)

func mustModel(t testing.TB, g *stf.Graph, workers int, m stf.Mapping) *spec.Model {
	t.Helper()
	mod, err := spec.NewModel(g, workers, m)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return mod
}

func TestNewModelValidation(t *testing.T) {
	g := graphs.Independent(3)
	if _, err := spec.NewModel(g, 0, nil); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := spec.NewModel(g, spec.MaxWorkers+1, nil); err == nil {
		t.Error("too many workers accepted")
	}
	if _, err := spec.NewModel(graphs.Independent(spec.MaxTasks+1), 2, nil); err == nil {
		t.Error("too many tasks accepted")
	}
	if _, err := spec.NewModel(stf.NewGraph("empty", 0), 2, nil); err == nil {
		t.Error("empty graph accepted")
	}
	bad := func(stf.TaskID) stf.WorkerID { return 9 }
	if _, err := spec.NewModel(g, 2, bad); err == nil {
		t.Error("out-of-range mapping accepted")
	}
}

// Hand-computable instance: a single task, one worker.
// STF states: {pending={0}, idle}, {pending={}, active=0}, {pending={}, idle}.
func TestSTFSingleTaskStateCount(t *testing.T) {
	g := stf.NewGraph("one", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	m := mustModel(t, g, 1, nil)
	res := m.CheckSTF()
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Distinct != 3 {
		t.Errorf("distinct = %d, want 3", res.Distinct)
	}
	if res.Generated != 2 {
		t.Errorf("generated = %d, want 2", res.Generated)
	}
	if res.Depth != 2 {
		t.Errorf("depth = %d, want 2", res.Depth)
	}
}

// Two independent tasks, two workers: states are hand-enumerable.
// Interleavings: each task can be pending, active-on-either-worker, done.
func TestSTFTwoIndependentTasks(t *testing.T) {
	g := stf.NewGraph("two", 2)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.W(1))
	m := mustModel(t, g, 2, nil)
	res := m.CheckSTF()
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	// Per-task marking: pending / active@w0 / active@w1 / done, with the
	// constraint that a worker holds at most one task. Enumeration gives
	// 4*4 - 2 (both tasks on the same worker, 2 ways) = 14.
	if res.Distinct != 14 {
		t.Errorf("distinct = %d, want 14", res.Distinct)
	}
}

// A two-task write-write chain admits exactly one execution order.
func TestSTFChainFullySerialized(t *testing.T) {
	g := stf.NewGraph("chain", 1)
	g.Add(0, 0, 0, 0, stf.RW(0))
	g.Add(0, 1, 0, 0, stf.RW(0))
	m := mustModel(t, g, 2, nil)
	res := m.CheckSTF()
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	// States: (P={0,1},idle) →w0/w1 active(0) → done(0),P={1} →w0/w1
	// active(1) → all done: 1 + 2 + 1 + 2 + 1 = 7.
	if res.Distinct != 7 {
		t.Errorf("distinct = %d, want 7", res.Distinct)
	}
}

func TestSTFOnLUInstances(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {3, 2}} {
		g := graphs.LURect(sz[0], sz[1])
		m := mustModel(t, g, 2, nil)
		res := m.CheckSTF()
		if !res.OK() {
			t.Errorf("%dx%d: %v", sz[0], sz[1], res.Violations)
		}
		if res.Distinct <= int64(len(g.Tasks)) {
			t.Errorf("%dx%d: suspiciously few states (%d)", sz[0], sz[1], res.Distinct)
		}
	}
}

func TestRIOOnLUInstances(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {3, 2}, {3, 3}} {
		g := graphs.LURect(sz[0], sz[1])
		m := mustModel(t, g, 2, sched.Cyclic(2))
		res := m.CheckRIO(spec.RIOOptions{})
		if !res.OK() {
			t.Errorf("%dx%d: %v", sz[0], sz[1], res.Violations)
		}
	}
}

// The work-stealing transition (an idle worker executes a victim's next
// in-order task when the counter state proves it ready) must preserve
// every invariant: no data race, refinement of STF, and termination still
// reachable. This is the model-level safety argument for Options.Steal.
func TestRIOStealOnLUInstances(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {3, 2}} {
		g := graphs.LURect(sz[0], sz[1])
		m := mustModel(t, g, 2, sched.Cyclic(2))
		res := m.CheckRIO(spec.RIOOptions{Steal: true})
		if !res.OK() {
			t.Errorf("%dx%d with steal: %v", sz[0], sz[1], res.Violations)
		}
		// Stealing enlarges the reachable space (tasks execute on
		// non-owner workers) but every extra state still refines STF.
		base := m.CheckRIO(spec.RIOOptions{})
		if res.Distinct <= base.Distinct {
			t.Errorf("%dx%d: steal added no states (%d <= %d)",
				sz[0], sz[1], res.Distinct, base.Distinct)
		}
		if res.Generated <= base.Generated {
			t.Errorf("%dx%d: steal added no transitions (%d <= %d)",
				sz[0], sz[1], res.Generated, base.Generated)
		}
	}
}

// Skewed mapping — the case stealing exists for: every task owned by
// worker 0, workers 1..n idle unless they steal. The hybrid model must
// still refine STF, and the thief transitions must actually fire (the
// state space grows).
func TestRIOStealSkewedMapping(t *testing.T) {
	g := graphs.LURect(3, 2)
	m := mustModel(t, g, 3, sched.Single(0))
	base := m.CheckRIO(spec.RIOOptions{})
	if !base.OK() {
		t.Fatalf("skewed base: %v", base.Violations)
	}
	res := m.CheckRIO(spec.RIOOptions{Steal: true})
	if !res.OK() {
		t.Errorf("skewed steal: %v", res.Violations)
	}
	if res.Distinct <= base.Distinct {
		t.Errorf("no thief transition fired: %d <= %d distinct states", res.Distinct, base.Distinct)
	}
}

// Negative control: an unsound steal readiness rule (one that ignores
// earlier readers, as a StealReq.Ready with the read-count comparison
// dropped would) must be caught by the refinement step check on a WAR
// flow — stealing must not open a soundness hole the checker cannot see.
func TestRIOUnsafeStealCaught(t *testing.T) {
	g := stf.NewGraph("war-steal", 1)
	g.Add(0, 0, 0, 0, stf.R(0)) // reader on worker 0
	g.Add(0, 1, 0, 0, stf.W(0)) // writer on worker 1, stealable by worker 0
	m := mustModel(t, g, 2, sched.Cyclic(2))
	if res := m.CheckRIO(spec.RIOOptions{Steal: true}); !res.OK() {
		t.Fatalf("sound steal model failed: %v", res.Violations)
	}
	res := m.CheckRIO(spec.RIOOptions{UnsafeSteal: true})
	if res.OK() {
		t.Error("unsound steal readiness not caught")
	}
}

// Negative control: enabling steal must not mask the dropped WAR ordering
// of the base in-order rule either.
func TestRIOStealDoesNotMaskUnsoundness(t *testing.T) {
	g := stf.NewGraph("war-steal-mask", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.R(0))
	g.Add(0, 2, 0, 0, stf.W(0))
	m := mustModel(t, g, 2, sched.Cyclic(2))
	res := m.CheckRIO(spec.RIOOptions{Steal: true, SkipReadBlockers: true})
	if res.OK() {
		t.Error("steal masked the dropped read→write ordering")
	}
}

// The sampling checker explores the same steal transitions; the unsound
// steal rule must be caught there as well (random walks on a two-task WAR
// flow hit the bad interleaving almost surely).
func TestRIOSampleSteal(t *testing.T) {
	g := stf.NewGraph("war-sample", 1)
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 1, 0, 0, stf.W(0))
	m := mustModel(t, g, 2, sched.Cyclic(2))
	if res := m.SampleRIO(200, 1, spec.RIOOptions{Steal: true}); !res.OK() {
		t.Fatalf("sound steal sampling failed: %v", res.Violations)
	}
	if res := m.SampleRIO(200, 1, spec.RIOOptions{UnsafeSteal: true}); res.OK() {
		t.Error("sampling did not catch the unsound steal rule")
	}
}

// Property: for random small task flows and mappings, the hybrid
// steal-enabled model always refines STF — readiness proven from the
// pre-task counter values is executor-independent.
func TestPropertyRIOStealAlwaysRefinesSTF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 8, 4)
		workers := 2 + rng.Intn(2)
		owners := make([]stf.WorkerID, len(g.Tasks))
		for i := range owners {
			owners[i] = stf.WorkerID(rng.Intn(workers))
		}
		m, err := spec.NewModel(g, workers, sched.Table(owners))
		if err != nil {
			return false
		}
		return m.CheckRIO(spec.RIOOptions{Steal: true}).OK()
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The in-order restriction must make the RIO state space (much) smaller
// than the STF one — the paper's Table 1 shows 23 vs 11 distinct states on
// the 2×2 instance, 94 vs 29 on 3×2.
func TestRIOStateSpaceSmallerThanSTF(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {3, 2}} {
		g := graphs.LURect(sz[0], sz[1])
		m := mustModel(t, g, 2, sched.Cyclic(2))
		stfRes := m.CheckSTF()
		rioRes := m.CheckRIO(spec.RIOOptions{SkipRefinement: true})
		if rioRes.Distinct >= stfRes.Distinct {
			t.Errorf("%dx%d: RIO states %d >= STF states %d", sz[0], sz[1], rioRes.Distinct, stfRes.Distinct)
		}
	}
}

// Negative control: dropping the "writes wait for earlier reads" rule
// (lines 19–20 of Algorithm 2) must be caught by the checker on a task
// flow with a read-then-write pattern.
func TestUnsoundModelCaught(t *testing.T) {
	g := stf.NewGraph("raw-war", 1)
	g.Add(0, 0, 0, 0, stf.W(0)) // writer
	g.Add(0, 1, 0, 0, stf.R(0)) // reader
	g.Add(0, 2, 0, 0, stf.W(0)) // writer that must wait for the reader
	m := mustModel(t, g, 2, sched.Cyclic(2))
	// Sound model passes.
	if res := m.CheckRIO(spec.RIOOptions{}); !res.OK() {
		t.Fatalf("sound model failed: %v", res.Violations)
	}
	// Unsound mutation must be caught.
	res := m.CheckRIO(spec.RIOOptions{SkipReadBlockers: true})
	if res.OK() {
		t.Error("checker did not catch the dropped read→write ordering")
	}
}

// Note: LU task flows contain no write-after-read hazard at tile
// granularity (every tile's reads follow all its writes and tiles are never
// rewritten afterwards), so the SkipReadBlockers mutation is *invisible* on
// LU — the negative controls must use flows with WAR hazards.
func TestUnsoundModelInvisibleOnLU(t *testing.T) {
	g := graphs.LURect(2, 2)
	m := mustModel(t, g, 2, sched.Cyclic(2))
	if res := m.CheckRIO(spec.RIOOptions{SkipReadBlockers: true}); !res.OK() {
		t.Errorf("expected the mutation to be invisible on LU (no WAR hazards), got %v", res.Violations)
	}
}

// A pure WAR hazard (read then write, mapped to different workers) must be
// caught by the step-refinement check even when no racy state is reachable.
func TestUnsoundModelCaughtByRefinementStep(t *testing.T) {
	g := stf.NewGraph("war", 1)
	g.Add(0, 0, 0, 0, stf.R(0)) // reader on worker 0
	g.Add(0, 1, 0, 0, stf.W(0)) // writer on worker 1 must wait for it
	m := mustModel(t, g, 2, sched.Cyclic(2))
	if res := m.CheckRIO(spec.RIOOptions{}); !res.OK() {
		t.Fatalf("sound model failed: %v", res.Violations)
	}
	res := m.CheckRIO(spec.RIOOptions{SkipReadBlockers: true})
	if res.OK() {
		t.Error("dropped WAR ordering not caught")
	}
}

// Random-dependency flows (Experiment 2's shape) are full of WAR hazards;
// the mutation must be caught there as well.
func TestUnsoundModelCaughtOnRandomDeps(t *testing.T) {
	g := graphs.RandomDeps(10, 3, 1, 1, 4)
	m := mustModel(t, g, 2, sched.Cyclic(2))
	if res := m.CheckRIO(spec.RIOOptions{}); !res.OK() {
		t.Fatalf("sound model failed: %v", res.Violations)
	}
	res := m.CheckRIO(spec.RIOOptions{SkipReadBlockers: true})
	if res.OK() {
		t.Error("unsound RIO variant passed on a random-dependency flow")
	}
}

func TestRIONoMappingRejected(t *testing.T) {
	g := graphs.Independent(2)
	m := mustModel(t, g, 2, nil)
	if res := m.CheckRIO(spec.RIOOptions{}); res.OK() {
		t.Error("CheckRIO without mapping succeeded")
	}
}

func TestTable1(t *testing.T) {
	rows, err := spec.Table1([][2]int{{2, 2}, {3, 2}}, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("row count = %d", len(rows))
	}
	if rows[0].Tasks != 5 || rows[1].Tasks != 8 {
		t.Errorf("task counts = %d, %d; want 5, 8", rows[0].Tasks, rows[1].Tasks)
	}
	for _, r := range rows {
		if !r.STF.OK() || !r.RIO.OK() {
			t.Errorf("%s: violations STF=%v RIO=%v", r.Size(), r.STF.Violations, r.RIO.Violations)
		}
		if r.STF.Distinct == 0 || r.RIO.Distinct == 0 {
			t.Errorf("%s: zero states", r.Size())
		}
		// Table 1's qualitative shape: the in-order model explores fewer
		// distinct states.
		if r.RIO.Distinct >= r.STF.Distinct {
			t.Errorf("%s: RIO %d >= STF %d distinct states", r.Size(), r.RIO.Distinct, r.STF.Distinct)
		}
	}
	// Explosive growth with instance size, as in the paper.
	if rows[1].STF.Distinct <= rows[0].STF.Distinct {
		t.Error("state count did not grow with instance size")
	}
}

// Property: for random small task flows and mappings, the sound RIO model
// always checks out (it provably refines STF); this is the model-level
// analogue of the engines' sequential-consistency property tests.
func TestPropertyRIOAlwaysRefinesSTF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 8, 4)
		workers := 1 + rng.Intn(3)
		owners := make([]stf.WorkerID, len(g.Tasks))
		for i := range owners {
			owners[i] = stf.WorkerID(rng.Intn(workers))
		}
		m, err := spec.NewModel(g, workers, sched.Table(owners))
		if err != nil {
			return false
		}
		if res := m.CheckSTF(); !res.OK() {
			return false
		}
		return m.CheckRIO(spec.RIOOptions{}).OK()
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: generated >= distinct-1 (every state beyond the initial one
// was generated at least once), and depth is bounded by 2·tasks.
func TestPropertyCounterSanity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 7, 3)
		m, err := spec.NewModel(g, 2, sched.Cyclic(2))
		if err != nil {
			return false
		}
		res := m.CheckSTF()
		if res.Generated < res.Distinct-1 {
			return false
		}
		return res.Depth <= 2*len(g.Tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
