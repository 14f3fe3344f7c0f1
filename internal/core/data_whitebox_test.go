package core

// White-box guards for the cache-conscious state layout and the park gate:
//
//   - the padded shared cell must stay an exact cache-line multiple, or a
//     []sharedState silently reintroduces false sharing between adjacent
//     data objects (the pre-padding layout was 56 bytes — a comment said 64
//     and nothing enforced it);
//   - the local-state arena must keep a full guard line between neighboring
//     workers' segments regardless of allocator alignment;
//   - the event gate must not allocate until someone parks, and a wake must
//     reach both present and about-to-park waiters;
//   - recycling between stream windows must return both halves of a data
//     object's state to idle, the zero value.

import (
	"testing"
	"unsafe"
)

func TestSharedStateIsCacheLineMultiple(t *testing.T) {
	size := unsafe.Sizeof(sharedState{})
	if size%cacheLine != 0 {
		t.Fatalf("sizeof(sharedState) = %d, not a multiple of the %d-byte cache line", size, cacheLine)
	}
	if size < cacheLine {
		t.Fatalf("sizeof(sharedState) = %d < one cache line (%d)", size, cacheLine)
	}
	// The pad must be computed from the cell, not hand-counted: growing the
	// cell by one word must still land on a line multiple. (Compile-time by
	// construction; pin the current relationship so a refactor that drops
	// the computed pad fails loudly.)
	cell := unsafe.Sizeof(sharedCell{})
	if want := (cell + cacheLine - 1) / cacheLine * cacheLine; size != want {
		t.Fatalf("sizeof(sharedState) = %d, want %d (cell %d rounded up to a line)", size, want, cell)
	}
	// Adjacent elements of a []sharedState must start on distinct lines.
	var s [2]sharedState
	d := uintptr(unsafe.Pointer(&s[1])) - uintptr(unsafe.Pointer(&s[0]))
	if d < cacheLine {
		t.Fatalf("adjacent sharedState elements %d bytes apart, want >= %d", d, cacheLine)
	}
}

// TestLocalArenaSeparatesWorkers: every worker's segment starts idle — the
// zero value — and at least a full line from its neighbors, both when the
// arena is fresh and when a used one is laid out again (reset) for the same
// or a smaller numData, as a pooled run state is.
func TestLocalArenaSeparatesWorkers(t *testing.T) {
	if cacheLine%unsafe.Sizeof(localState{}) != 0 {
		t.Fatalf("sizeof(localState) = %d no longer divides the cache line; the arena's guard-gap arithmetic needs revisiting", unsafe.Sizeof(localState{}))
	}
	check := func(a *localArena, workers, numData int, how string) {
		t.Helper()
		for w := 0; w < workers; w++ {
			seg := a.worker(w)
			if len(seg) != numData {
				t.Fatalf("%s workers=%d numData=%d: worker %d segment length %d", how, workers, numData, w, len(seg))
			}
			for d := range seg {
				if seg[d] != (localState{}) {
					t.Fatalf("%s workers=%d numData=%d: worker %d data %d = %+v, want idle (zero)", how, workers, numData, w, d, seg[d])
				}
			}
		}
		if numData == 0 {
			return
		}
		// The end of worker w's segment and the start of worker w+1's must
		// be at least one full line apart, so no line holds state of two
		// workers no matter how the backing array is aligned.
		for w := 0; w+1 < workers; w++ {
			lastEnd := uintptr(unsafe.Pointer(&a.worker(w)[numData-1])) + unsafe.Sizeof(localState{})
			nextStart := uintptr(unsafe.Pointer(&a.worker(w + 1)[0]))
			if gap := nextStart - lastEnd; gap < cacheLine {
				t.Fatalf("%s workers=%d numData=%d: gap between worker %d and %d segments is %d bytes, want >= %d",
					how, workers, numData, w, w+1, gap, cacheLine)
			}
		}
	}
	for _, tc := range []struct{ workers, numData int }{
		{1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 7}, {4, 64}, {8, 129},
	} {
		a := newLocalArena(tc.workers, tc.numData)
		check(&a, tc.workers, tc.numData, "fresh")
		for _, n := range []int{tc.numData, tc.numData / 2, 0} {
			for i := range a.backing {
				a.backing[i] = localState{lastRegisteredWrite: 9, nbReadsSinceWrite: 3, nbRedsSinceWrite: 2, nbRedsBeforeRun: 1}
			}
			a.reset(n)
			check(&a, tc.workers, n, "reused")
		}
	}
}

func TestParkGateLazyAndWakeable(t *testing.T) {
	var sh sharedState
	// No waiters: wake must not allocate a gate (nor take the slow path —
	// behaviorally: parkCh stays nil).
	sh.wake()
	if sh.parkCh != nil {
		t.Fatal("wake with no waiters allocated the gate channel")
	}
	// A registered waiter fetches the gate; a wake closes and clears it.
	sh.waiters.Add(1)
	ch := sh.parkChan()
	if ch == nil || sh.parkCh != ch {
		t.Fatal("parkChan did not install the gate")
	}
	sh.wake()
	select {
	case <-ch:
	default:
		t.Fatal("wake did not close the fetched gate channel")
	}
	if sh.parkCh != nil {
		t.Fatal("wake did not reset the gate for the next epoch")
	}
	// The next epoch gets a fresh channel.
	if ch2 := sh.parkChan(); ch2 == ch {
		t.Fatal("gate channel reused across epochs")
	}
	sh.waiters.Add(-1)
}

// TestSharedCellRecycle: idle is the zero value — a zero cell is a fresh
// one, and recycle returns a used cell to it without touching the park
// gate's idle invariants.
func TestSharedCellRecycle(t *testing.T) {
	var c sharedCell
	if c.lastExecutedWrite.Load() != 0 || c.nbReadsSinceWrite.Load() != 0 || c.nbRedsSinceWrite.Load() != 0 {
		t.Fatal("a zero cell is not idle")
	}
	c.lastExecutedWrite.Store(7)
	c.nbReadsSinceWrite.Store(3)
	c.nbRedsSinceWrite.Store(2)
	c.recycle()
	if c.lastExecutedWrite.Load() != 0 || c.nbReadsSinceWrite.Load() != 0 || c.nbRedsSinceWrite.Load() != 0 {
		t.Error("recycle did not return the protocol counters to zero")
	}
	if c.waiters.Load() != 0 || c.parkCh != nil {
		t.Error("recycle disturbed the idle park gate")
	}
}

// TestLocalStateRecycle: the private half resets to the zero value, and the
// id+1 encoding of a write round-trips between the halves: a worker that
// declares the write another worker terminated is ready for the next write,
// while a mirror that has not declared it — task 0's included — is not.
func TestLocalStateRecycle(t *testing.T) {
	l := localState{}
	l.declareWrite(4)
	l.declareRead()
	l.recycle()
	if l != (localState{}) {
		t.Errorf("recycle left %+v, want the zero value", l)
	}
	for _, id := range []int64{0, 5} {
		var sh sharedState
		var owner, other localState
		if !other.writeReady(&sh) {
			t.Fatalf("task %d: a fresh mirror is not ready on a fresh cell", id)
		}
		owner.terminateWrite(&sh, id)
		if other.writeReady(&sh) {
			t.Errorf("task %d: a mirror that never declared the write takes the written cell for idle", id)
		}
		other.declareWrite(id)
		if !other.writeReady(&sh) {
			t.Errorf("task %d: terminateWrite then declareWrite of the same task left writeReady false", id)
		}
	}
}
