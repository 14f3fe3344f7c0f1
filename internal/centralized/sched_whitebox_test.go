package centralized

import (
	"testing"
	"time"

	"rio/internal/stf"
)

// TestStealPopSeesPushDuringScan forces the interleaving a parked pop must
// survive: the popping worker has found its own deque empty and is still
// scanning its victims when a task lands in its own deque. The test holds
// the victim's deque lock to freeze the scan there, pushes, then lets the
// scan finish empty-handed. A pop that reads the push counter only after
// its failed scan takes that push for one it has seen and parks forever; a
// pop that reads it before scanning notices the push and rescans.
func TestStealPopSeesPushDuringScan(t *testing.T) {
	s := newStealScheduler(2, waitTuning{policy: stf.WaitPark})
	victim := &s.deques[1]
	victim.mu.Lock()
	got := make(chan *task, 1)
	go func() {
		tk, _ := s.pop(0)
		got <- tk
	}()
	// Let the pop get past its own empty deque and block on the victim's.
	time.Sleep(20 * time.Millisecond)
	want := &task{id: 7, hint: 0}
	s.push(want)
	victim.mu.Unlock()
	select {
	case tk := <-got:
		if tk != want {
			t.Fatalf("pop returned %v, want the pushed task", tk)
		}
	case <-time.After(5 * time.Second):
		s.close()
		<-got
		t.Fatal("pop parked with a task in its own deque: the push during its scan was lost")
	}
}
