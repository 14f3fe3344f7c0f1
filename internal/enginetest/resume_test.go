package enginetest_test

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"rio"
	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/faultinject"
	"rio/internal/graphs"
	"rio/internal/stf"
)

// Resume-after-failure correctness, cross-engine: a run is killed mid-flow
// by a permanent fault, the checkpoint is captured from the PartialError,
// and a second run with Options.Resume finishes the job over the same data
// memory. The combined outcome must match the sequential reference exactly
// (values and dependency order) — the end-to-end statement that the
// checkpointed frontier is dependency-closed and resume preserves
// sequential consistency.
//
// The two phases share one oracle trace and one ticket clock: phase-1
// tickets stay in place for the skipped tasks, so CheckOrder validates the
// stitched execution order across the failure boundary.

// failResume runs g on a fresh engine built from opts with a permanent
// fault at failID and returns the captured checkpoint. Retry with
// MaxAttempts 1 turns the fault into an immediate terminal TaskFailure on
// every engine (and enables checkpoint tracking).
func failResume(t *testing.T, opts rio.Options, g *stf.Graph, tr *enginetest.Trace, clock *atomic.Int64, failID stf.TaskID) *rio.Checkpoint {
	t.Helper()
	opts.Fault.Retry = &rio.RetryPolicy{MaxAttempts: 1}
	rt := mustEngine(t, opts)
	kern := faultinject.PanicAt(enginetest.Kernel(tr, clock), failID)
	err := rt.Run(g.NumData, stf.Replay(g, kern))
	if err == nil {
		t.Fatal("run survived a permanent fault")
	}
	var pe *rio.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not wrap a PartialError", err)
	}
	cp := pe.Result.Checkpoint()
	if cp.Contains(failID) {
		t.Fatal("failed task recorded as completed")
	}
	if cp.Len() == 0 {
		t.Fatal("empty checkpoint: nothing completed before the fault")
	}
	// Every skipped task's ticket must still be zero (its body never ran),
	// and every checkpointed task's must be stamped.
	for _, id := range cp.Completed {
		if tr.Tickets[id] == 0 {
			t.Fatalf("checkpointed task %d has no execution stamp", id)
		}
	}
	return cp
}

func TestResumeAfterFailure(t *testing.T) {
	g := graphs.LURect(3, 3)
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	const failID = 7
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			tr := enginetest.NewTrace(g)
			var clock atomic.Int64
			cp := failResume(t, spec.opts, g, tr, &clock, failID)

			opts := spec.opts
			opts.Fault.Resume = cp
			rt := mustEngine(t, opts)
			if err := rt.Run(g.NumData, stf.Replay(g, enginetest.Kernel(tr, &clock))); err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			if err := enginetest.Compare(g, want, tr); err != nil {
				t.Errorf("resumed run diverged from the sequential reference: %v", err)
			}
			if p := rt.Progress(); p.Skipped() != int64(cp.Len()) {
				t.Errorf("Progress().Skipped() = %d, want %d (the checkpoint size)", p.Skipped(), cp.Len())
			}
		})
	}
}

// The compiled fast path prunes checkpointed tasks out of the cached
// instruction streams (§3.5 machinery reused for resume) instead of
// skipping them at replay time; the outcome must be identical.
func TestResumeCompiledReplay(t *testing.T) {
	g := graphs.LURect(3, 3)
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	const failID = 7
	for _, prune := range []bool{false, true} {
		name := "unpruned"
		if prune {
			name = "pruned"
		}
		t.Run(name, func(t *testing.T) {
			tr := enginetest.NewTrace(g)
			var clock atomic.Int64

			eng1, err := rio.NewEngine(rio.Options{Workers: 2, Prune: prune, Fault: rio.FaultOptions{Retry: &rio.RetryPolicy{MaxAttempts: 1}}})
			if err != nil {
				t.Fatal(err)
			}
			kern := faultinject.PanicAt(enginetest.Kernel(tr, &clock), failID)
			runErr := eng1.RunGraph(g, kern)
			if runErr == nil {
				t.Fatal("compiled run survived a permanent fault")
			}
			var pe *rio.PartialError
			if !errors.As(runErr, &pe) {
				t.Fatalf("error %v does not wrap a PartialError", runErr)
			}
			cp := pe.Result.Checkpoint()
			if cp.Len() == 0 {
				t.Fatal("empty checkpoint")
			}

			eng2, err := rio.NewEngine(rio.Options{Workers: 2, Prune: prune, Fault: rio.FaultOptions{Resume: cp}})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng2.RunGraph(g, enginetest.Kernel(tr, &clock)); err != nil {
				t.Fatalf("resumed compiled run failed: %v", err)
			}
			if err := enginetest.Compare(g, want, tr); err != nil {
				t.Errorf("resumed compiled run diverged: %v", err)
			}
			if p := eng2.Progress(); p.Skipped() != int64(cp.Len()) {
				t.Errorf("Progress().Skipped() = %d, want %d", p.Skipped(), cp.Len())
			}
		})
	}
}

// A second-generation failure: the resumed run itself dies and is resumed
// again. The checkpoint chain must accumulate — the second PartialError's
// completed set contains the first checkpoint — so recovery composes.
func TestResumeChained(t *testing.T) {
	g := graphs.Chain(20)
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range faultEngines() {
		t.Run(spec.name, func(t *testing.T) {
			tr := enginetest.NewTrace(g)
			var clock atomic.Int64
			cp1 := failResume(t, spec.opts, g, tr, &clock, 5)

			opts := spec.opts
			opts.Fault.Resume = cp1
			cp2 := failResume(t, opts, g, tr, &clock, 12)
			for _, id := range cp1.Completed {
				if !cp2.Contains(id) {
					t.Fatalf("second checkpoint lost task %d from the first", id)
				}
			}

			opts = spec.opts
			opts.Fault.Resume = cp2
			rt := mustEngine(t, opts)
			if err := rt.Run(g.NumData, stf.Replay(g, enginetest.Kernel(tr, &clock))); err != nil {
				t.Fatalf("final resumed run failed: %v", err)
			}
			if err := enginetest.Compare(g, want, tr); err != nil {
				t.Error(err)
			}
		})
	}
}

// Resume accounting does not depend on the lowering: a task whose accesses
// were all elided leaves a lone exec in its owner's stream and nothing in
// anyone else's, exactly like an access-free task, and PruneCompleted must
// still move it from Executed to Skipped and out of every other worker's
// Declared. For random flows × mappings × checkpoint prefixes, the
// per-worker Progress() of a resumed elided program equals that of the
// resumed canonical one, and executed + skipped covers the flow.
func TestResumeElidedAccounting(t *testing.T) {
	const workers = 3
	for seed := int64(1); seed <= 12; seed++ {
		g := randomFlow(seed)
		n := len(g.Tasks)
		// A task-flow prefix is always dependency-closed.
		done := make([]stf.TaskID, rand.New(rand.NewSource(seed)).Intn(n+1))
		for i := range done {
			done[i] = stf.TaskID(i)
		}
		resume := &stf.Checkpoint{Tasks: n, Completed: done}
		for _, nm := range elisionMappings(g, workers) {
			elided, err := stf.Compile(g, nm.m, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			canonical, err := stf.CompileCanonical(g, nm.m, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			var progress [2]rio.Progress
			for i, cp := range []*stf.CompiledProgram{elided, canonical} {
				eng, err := core.New(core.Options{Workers: workers, Resume: resume})
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.RunCompiled(cp, noop); err != nil {
					t.Fatalf("seed %d, %s: %v", seed, nm.name, err)
				}
				progress[i] = eng.Progress()
			}
			e, c := progress[0], progress[1]
			if got := e.Executed() + e.Skipped(); got != int64(n) || e.Skipped() != int64(len(done)) {
				t.Errorf("seed %d, %s: executed %d + skipped %d, want %d tasks of which %d skipped",
					seed, nm.name, e.Executed(), e.Skipped(), n, len(done))
			}
			for w := range e.Workers {
				ew, cw := e.Workers[w], c.Workers[w]
				if ew.Executed != cw.Executed || ew.Declared != cw.Declared || ew.Skipped != cw.Skipped {
					t.Errorf("seed %d, %s, worker %d: elided resume executed/declared/skipped %d/%d/%d, canonical %d/%d/%d",
						seed, nm.name, w, ew.Executed, ew.Declared, ew.Skipped, cw.Executed, cw.Declared, cw.Skipped)
				}
			}
		}
	}
}
