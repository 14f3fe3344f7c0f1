package centralized_test

// Wait-policy coverage for the executors' ready-queue pops: every policy
// must stay sequentially consistent and must shut
// down cleanly (a WaitSpin executor that missed the close would spin
// forever and hang the run's join), including under GOMAXPROCS(1)
// oversubscription where spin phases must yield to let the master run.

import (
	"runtime"
	"testing"

	"rio/internal/centralized"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/stf"
)

func TestWaitPolicySchedulerMatrix(t *testing.T) {
	for _, pol := range []stf.WaitPolicy{stf.WaitAdaptive, stf.WaitSpin, stf.WaitPark} {
		e := newEngine(t, centralized.Options{Workers: 4, WaitPolicy: pol, SpinLimit: 8})
		for _, g := range []*stf.Graph{
			graphs.ReadersWriter(20, 6),
			graphs.RandomDeps(200, 16, 2, 1, 7),
		} {
			if err := enginetest.Check(e, g); err != nil {
				t.Errorf("policy %v, %s: %v", pol, g.Name, err)
			}
		}
	}
}

func TestWaitPolicyOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, pol := range []stf.WaitPolicy{stf.WaitAdaptive, stf.WaitSpin} {
		e := newEngine(t, centralized.Options{Workers: 8, WaitPolicy: pol})
		if err := enginetest.Check(e, graphs.Chain(150)); err != nil {
			t.Errorf("policy %v: %v", pol, err)
		}
	}
}

func TestWaitPolicyValidation(t *testing.T) {
	if _, err := centralized.New(centralized.Options{Workers: 2, WaitPolicy: stf.WaitPolicy(42)}); err == nil {
		t.Error("WaitPolicy(42) accepted")
	}
}
