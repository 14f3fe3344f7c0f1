package core

// White-box regression tests for two audited hot-path mechanisms:
//
//   - the replay-divergence guard's stream hash (fold) must distinguish
//     access order and access mode *within* one task — a commutative or
//     mode-blind fold would let real divergences collide;
//   - the spin-then-park dependency wait must budget its busy-poll phase
//     per *wait*, not per worker lifetime — a leaked budget would push
//     every later wait straight into the slow phase.

import (
	"testing"

	"rio/internal/stf"
	"rio/internal/trace"
)

// foldHash folds one task into a fresh guard and returns the stream hash.
func foldHash(id stf.TaskID, accesses ...stf.Access) uint64 {
	g := &guardState{}
	g.fold(id, accesses)
	return g.hash
}

// The fold must be order-sensitive within a task: [R(x),W(y)] and
// [W(y),R(x)] are different replays even though they carry the same
// access set (audited: mix64 chains sequentially, so this holds).
func TestGuardFoldDistinguishesAccessOrder(t *testing.T) {
	a := foldHash(7, stf.R(1), stf.W(2))
	b := foldHash(7, stf.W(2), stf.R(1))
	if a == b {
		t.Fatalf("fold([R(1),W(2)]) == fold([W(2),R(1)]) = %#x: access order lost", a)
	}
	// Three accesses, rotated: all distinct.
	h1 := foldHash(7, stf.R(1), stf.R(2), stf.R(3))
	h2 := foldHash(7, stf.R(2), stf.R(3), stf.R(1))
	h3 := foldHash(7, stf.R(3), stf.R(1), stf.R(2))
	if h1 == h2 || h1 == h3 || h2 == h3 {
		t.Fatalf("rotated access lists collide: %#x %#x %#x", h1, h2, h3)
	}
}

// The fold must be mode-sensitive: the same data accessed R vs RW vs W vs
// Red are different protocol behaviors (audited: the access word packs
// data<<8|mode, so the mode bits survive).
func TestGuardFoldDistinguishesAccessMode(t *testing.T) {
	modes := []stf.Access{stf.R(3), stf.W(3), stf.RW(3), stf.Red(3)}
	seen := make(map[uint64]stf.AccessMode, len(modes))
	for _, a := range modes {
		h := foldHash(5, a)
		if prev, dup := seen[h]; dup {
			t.Fatalf("mode %v and mode %v fold to the same hash %#x", prev, a.Mode, h)
		}
		seen[h] = a.Mode
	}
}

// Folding the same accesses under different task IDs, or the same tasks
// in a different sequence, must differ: the guard hashes the whole
// replayed stream, not a bag of tasks.
func TestGuardFoldDistinguishesTaskSequence(t *testing.T) {
	if foldHash(1, stf.R(0)) == foldHash(2, stf.R(0)) {
		t.Fatal("task ID not folded")
	}
	a := &guardState{}
	a.fold(1, []stf.Access{stf.R(0)})
	a.fold(2, []stf.Access{stf.W(0)})
	b := &guardState{}
	b.fold(2, []stf.Access{stf.W(0)})
	b.fold(1, []stf.Access{stf.R(0)})
	if a.hash == b.hash {
		t.Fatalf("task order lost: both streams fold to %#x", a.hash)
	}
}

// The access word packs data<<8|mode; neighbouring data IDs with swapped
// mode bits are the classic packing collision ((d,mode+256) vs (d+1,mode))
// — impossible while modes stay below 256, which this test pins.
func TestGuardFoldPackingHeadroom(t *testing.T) {
	for _, m := range []stf.AccessMode{stf.None, stf.ReadOnly, stf.Red(0).Mode, stf.W(0).Mode, stf.RW(0).Mode} {
		if int64(m) >= 1<<8 {
			t.Fatalf("access mode %d no longer fits the 8-bit field of the guard's packing", m)
		}
	}
	if foldHash(1, stf.Access{Data: 0, Mode: stf.ReadOnly}) == foldHash(1, stf.Access{Data: 1, Mode: stf.None}) {
		t.Fatal("packing collision between (data 0, mode 1) and (data 1, mode 0)")
	}
}

// The spin budget must be per wait: a worker that waits many times, each
// resolving within the busy-poll phase, must never escalate to the slow
// phase (audited: `spin` is a local of wait(), so the budget resets — this
// test fails if it is ever hoisted into worker state). The abort latch is
// raised throughout, so a wait that reaches the slow phase unwinds, its
// worker's error slot naming the task and access it was blocked on.
func TestWaitSpinBudgetIsPerWait(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := &sharedState{}
	// The busy budget floats by design (each wait the busy-poll phase
	// catches doubles it), so the test pins it before every wait.
	const budget = 1000
	s := &submitter{eng: e, abort: &abortState{}, prog: trace.NewProgressTable(1).Worker(0)}
	s.abort.flag.Store(true)
	const waits = 100
	for i := 0; i < waits; i++ {
		s.spinBudget = budget
		polls := 0
		s.wait(3, stf.R(0), sh, func() bool {
			// Resolve well inside one wait's busy budget, but so that the
			// cumulative polls across waits far exceed the budget and the
			// yield phase: a count leaked across waits escalates within
			// the first fifty.
			polls++
			return polls > 40
		})
		if s.err != nil {
			t.Fatalf("wait %d escalated to the slow phase: spin budget not per-wait (%v)", i, s.err)
		}
	}
	// Control: a wait that never resolves passes the busy and yield phases
	// and is unwound by the abort, naming what it waited on.
	unwound := func(id stf.TaskID, a stf.Access, want stf.StalledWorker) {
		t.Helper()
		s.err, s.spinBudget = nil, budget
		s.wait(id, a, sh, func() bool { return false })
		if b, ok := s.err.(*stalled); !ok || b.StalledWorker != want {
			t.Fatalf("unwound wait left %#v in the error slot, want %+v", s.err, want)
		}
	}
	unwound(4, stf.W(0), stf.StalledWorker{Task: 4, Data: 0, Mode: stf.W(0).Mode})
	// A compiled stream's get carries no mode: the diagnosis names the mode
	// its task declared, read from the task table.
	s.flow = &flow{tasks: []stf.Task{{ID: 0, Accesses: []stf.Access{stf.R(1), stf.RW(0)}}}}
	unwound(0, stf.Access{Data: 0}, stf.StalledWorker{Task: 0, Data: 0, Mode: stf.RW(0).Mode})
}
