package centralized_test

// Wait coverage for the executors' ready-queue pops: the spin-then-park pop
// must stay sequentially consistent and must shut down cleanly, including
// under GOMAXPROCS(1) oversubscription where the spin phase must yield to
// let the master run.

import (
	"runtime"
	"testing"

	"rio/internal/centralized"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/stf"
)

func TestWaitPolicySchedulerMatrix(t *testing.T) {
	e := newEngine(t, centralized.Options{Workers: 4})
	for _, g := range []*stf.Graph{
		graphs.ReadersWriter(20, 6),
		graphs.RandomDeps(200, 16, 2, 1, 7),
	} {
		if err := enginetest.Check(e, g); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestWaitPolicyOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newEngine(t, centralized.Options{Workers: 8})
	if err := enginetest.Check(e, graphs.Chain(150)); err != nil {
		t.Error(err)
	}
}
