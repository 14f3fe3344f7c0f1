package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEpochGateAdvanceWakes: a waiter parked on a future generation wakes
// exactly when the counter reaches its target, never on an older close.
func TestEpochGateAdvanceWakes(t *testing.T) {
	var g epochGate
	const target = 5
	done := make(chan bool, 1)
	go func() { done <- g.Wait(target) }()
	for i := 0; i < target; i++ {
		select {
		case <-done:
			t.Fatalf("Wait(%d) returned after only %d advances", target, i)
		default:
		}
		g.Advance()
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Wait returned false after target was reached")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not wake after the target advance")
	}
	if g.Current() != target {
		t.Fatalf("Current = %d, want %d", g.Current(), target)
	}
}

// TestEpochGateStaleWakeupReparks: generation numbers, not channel
// identity, decide progress — a waiter woken by an intermediate epoch's
// close re-checks the counter and parks again instead of proceeding.
// The staircase of waiters (one per future generation) is exactly the
// shape a stale wakeup would corrupt: if waiter k+1 ran on waiter k's
// close, the premature flag would record a generation shortfall.
func TestEpochGateStaleWakeupReparks(t *testing.T) {
	var g epochGate
	const gens = 200
	var premature atomic.Int64
	var wg sync.WaitGroup
	for target := uint64(1); target <= gens; target++ {
		wg.Add(1)
		go func(target uint64) {
			defer wg.Done()
			if !g.Wait(target) {
				premature.Add(1)
				return
			}
			if got := g.Current(); got < target {
				premature.Add(1)
			}
		}(target)
	}
	for i := 0; i < gens; i++ {
		g.Advance()
	}
	wg.Wait()
	if n := premature.Load(); n != 0 {
		t.Fatalf("%d waiters proceeded before their generation", n)
	}
}

// TestEpochGateClose: Close wakes every parked waiter with a false
// verdict, and later Waits fail fast instead of blocking.
func TestEpochGateClose(t *testing.T) {
	var g epochGate
	g.Advance()
	const waiters = 8
	results := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() { results <- g.Wait(100) }()
	}
	time.Sleep(10 * time.Millisecond) // let them reach the parked phase
	g.Close()
	for i := 0; i < waiters; i++ {
		select {
		case ok := <-results:
			if ok {
				t.Fatal("Wait reported its target reached on a closed gate")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked waiter not woken by Close")
		}
	}
	if g.Wait(100) {
		t.Fatal("Wait on a closed gate reported success")
	}
	if !g.Wait(1) {
		t.Fatal("Wait on an already-reached target must succeed even closed")
	}
}

// TestEpochGateHammer: concurrent waiters and one advancer, -race fodder
// for the counter-under-mutex publication protocol.
func TestEpochGateHammer(t *testing.T) {
	var g epochGate
	const gens = 5000
	const waiters = 4
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for target := uint64(1); target <= gens; target++ {
				if !g.Wait(target) {
					t.Error("gate closed mid-hammer")
					return
				}
			}
		}()
	}
	for i := 0; i < gens; i++ {
		g.Advance()
	}
	wg.Wait()
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
