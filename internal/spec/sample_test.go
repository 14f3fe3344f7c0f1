package spec_test

import (
	"testing"

	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/spec"
	"rio/internal/stf"
)

func TestSampleSTFOnLargeInstance(t *testing.T) {
	// LU 4×4 has 30 tasks — exhaustive STF enumeration is out of reach,
	// sampling is not.
	g := graphs.LURect(4, 4)
	m := mustModel(t, g, 2, sched.Cyclic(2))
	res := m.SampleSTF(200, 1)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	// Every run of n tasks takes exactly 2n steps (execute + terminate
	// each task once).
	if res.Depth != 2*len(g.Tasks) {
		t.Errorf("depth = %d, want %d", res.Depth, 2*len(g.Tasks))
	}
	if res.Generated != int64(200*2*len(g.Tasks)) {
		t.Errorf("generated = %d, want %d", res.Generated, 200*2*len(g.Tasks))
	}
	if res.Distinct < int64(2*len(g.Tasks)) {
		t.Errorf("suspiciously few distinct states: %d", res.Distinct)
	}
}

func TestSampleRIOOnLargeInstance(t *testing.T) {
	g := graphs.LURect(4, 4)
	for _, workers := range []int{2, 3, 4} {
		m := mustModel(t, g, workers, sched.Cyclic(workers))
		res := m.SampleRIO(200, 7, spec.RIOOptions{})
		if !res.OK() {
			t.Fatalf("workers=%d: %v", workers, res.Violations)
		}
		if res.Depth != 2*len(g.Tasks) {
			t.Errorf("workers=%d: depth = %d, want %d", workers, res.Depth, 2*len(g.Tasks))
		}
	}
}

func TestSampleAgreesWithExhaustiveOnSmallInstance(t *testing.T) {
	// With enough runs on a tiny instance, sampling should discover the
	// full state space found by BFS.
	g := graphs.LURect(2, 2)
	m := mustModel(t, g, 2, sched.Cyclic(2))
	exact := m.CheckRIO(spec.RIOOptions{SkipRefinement: true})
	sampled := m.SampleRIO(3000, 3, spec.RIOOptions{})
	if !sampled.OK() {
		t.Fatalf("violations: %v", sampled.Violations)
	}
	if sampled.Distinct != exact.Distinct {
		t.Errorf("sampled %d distinct states, exhaustive found %d", sampled.Distinct, exact.Distinct)
	}
}

func TestSampleCatchesUnsoundMutation(t *testing.T) {
	// The WAR-hazard flow: with the read→write wait dropped, random walks
	// must hit the violation quickly.
	g := stf.NewGraph("war", 1)
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 1, 0, 0, stf.W(0))
	m := mustModel(t, g, 2, sched.Cyclic(2))
	if res := m.SampleRIO(100, 5, spec.RIOOptions{}); !res.OK() {
		t.Fatalf("sound model failed: %v", res.Violations)
	}
	for _, opts := range []spec.RIOOptions{{SkipReadBlockers: true}, {Retry: true, SkipReadBlockers: true}} {
		if res := m.SampleRIO(100, 5, opts); res.OK() {
			t.Errorf("%+v: sampling missed the unsound mutation on 100 runs of a 2-task flow", opts)
		}
	}
}

// A sampled check with Retry walks the rollback transition too: the same
// seed takes more transitions than without it, and every walk still
// terminates with every invariant intact.
func TestSampleRIORetry(t *testing.T) {
	m := mustModel(t, graphs.LURect(2, 2), 2, sched.Cyclic(2))
	base := m.SampleRIO(200, 1, spec.RIOOptions{})
	retry := m.SampleRIO(200, 1, spec.RIOOptions{Retry: true})
	if !retry.OK() {
		t.Fatalf("violations: %v", retry.Violations)
	}
	if retry.Generated <= base.Generated {
		t.Errorf("retry took %d transitions, without it %d: rollback not sampled", retry.Generated, base.Generated)
	}
}

func TestSampleRIONoMapping(t *testing.T) {
	g := graphs.Independent(2)
	m := mustModel(t, g, 2, nil)
	if res := m.SampleRIO(10, 1, spec.RIOOptions{}); res.OK() {
		t.Error("SampleRIO without mapping succeeded")
	}
}

func TestSampleDeterministicInSeed(t *testing.T) {
	g := graphs.LURect(3, 2)
	m := mustModel(t, g, 2, sched.Cyclic(2))
	a := m.SampleRIO(50, 11, spec.RIOOptions{})
	b := m.SampleRIO(50, 11, spec.RIOOptions{})
	if a.Generated != b.Generated || a.Distinct != b.Distinct {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}
