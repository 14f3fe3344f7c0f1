package sim_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/sim"
	"rio/internal/stf"
)

const us = time.Microsecond

func zeroCosts() sim.Costs { return sim.Costs{} }

func TestRIOZeroOverheadSingleWorkerIsSerial(t *testing.T) {
	g := graphs.Independent(10)
	w := sim.UniformWorkload(g, 5*us)
	r, err := sim.SimulateRIO(w, 1, sched.Single(0), zeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 50*us {
		t.Errorf("makespan = %v, want 50µs", r.Makespan)
	}
}

func TestRIOIndependentTasksPerfectSpeedup(t *testing.T) {
	// 40 independent 5µs tasks on 4 zero-overhead workers: 50µs.
	g := graphs.Independent(40)
	w := sim.UniformWorkload(g, 5*us)
	r, err := sim.SimulateRIO(w, 4, sched.Cyclic(4), zeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 50*us {
		t.Errorf("makespan = %v, want 50µs", r.Makespan)
	}
	eff := r.Efficiency()
	if eff.Parallel < 0.999 {
		t.Errorf("parallel efficiency = %v, want ≈1", eff.Parallel)
	}
}

func TestRIOChainIsSerialRegardlessOfWorkers(t *testing.T) {
	g := graphs.Chain(20)
	w := sim.UniformWorkload(g, 3*us)
	r, err := sim.SimulateRIO(w, 4, sched.Cyclic(4), zeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 60*us {
		t.Errorf("chain makespan = %v, want 60µs", r.Makespan)
	}
}

func TestRIODeclareCostGrowsWithForeignTasks(t *testing.T) {
	// Eq. (2): t_p = n·t_r + n·t_t/w. With declare = 1µs, 100 tasks on 2
	// workers (50 each, 10µs tasks): each worker: 50 declares ×1µs + own
	// acquire/release 0 + 50×10µs = 550µs.
	g := graphs.Independent(100)
	w := sim.UniformWorkload(g, 10*us)
	r, err := sim.SimulateRIO(w, 2, sched.Cyclic(2), sim.Costs{DeclareCost: 1 * us})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 550*us {
		t.Errorf("makespan = %v, want 550µs (cost model eq. 2)", r.Makespan)
	}
}

func TestRIOWaitsForDependencies(t *testing.T) {
	// Writer on worker 0 (10µs), reader on worker 1: reader idles 10µs.
	g := stf.NewGraph("pair", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.R(0))
	w := sim.UniformWorkload(g, 10*us)
	r, err := sim.SimulateRIO(w, 2, sched.Cyclic(2), zeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Start[1] != 10*us {
		t.Errorf("reader starts at %v, want 10µs", r.Start[1])
	}
	if r.Stats.Workers[1].Idle != 10*us {
		t.Errorf("reader idle = %v, want 10µs", r.Stats.Workers[1].Idle)
	}
	if r.Makespan != 20*us {
		t.Errorf("makespan = %v", r.Makespan)
	}
}

func TestCentralizedMasterBottleneck(t *testing.T) {
	// Eq. (1): with near-zero task bodies, t_p ≈ n·t_r. 1000 zero-length
	// tasks, dispatch 1µs: makespan ≈ 1000µs whatever the worker count.
	g := graphs.Independent(1000)
	w := sim.UniformWorkload(g, 0)
	for _, p := range []int{2, 4, 8, 24} {
		r, err := sim.SimulateCentralized(w, p, sim.Costs{DispatchCost: 1 * us})
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan != 1000*us {
			t.Errorf("p=%d: makespan = %v, want 1000µs (master bottleneck)", p, r.Makespan)
		}
	}
}

func TestCentralizedComputeBoundAtCoarseGrain(t *testing.T) {
	// Coarse tasks: t_p ≈ n·t_t/(p-1); the master keeps up.
	g := graphs.Independent(120)
	w := sim.UniformWorkload(g, 100*us)
	r, err := sim.SimulateCentralized(w, 5, sim.Costs{DispatchCost: 1 * us})
	if err != nil {
		t.Fatal(err)
	}
	// 120 tasks / 4 executors × 100µs = 3000µs (+ small dispatch skew).
	if r.Makespan < 3000*us || r.Makespan > 3200*us {
		t.Errorf("makespan = %v, want ≈3000µs", r.Makespan)
	}
}

func TestCentralizedRespectsDependencies(t *testing.T) {
	g := graphs.Chain(10)
	w := sim.UniformWorkload(g, 10*us)
	r, err := sim.SimulateCentralized(w, 4, zeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 100*us {
		t.Errorf("chain makespan = %v, want 100µs", r.Makespan)
	}
	for i := 1; i < 10; i++ {
		if r.Start[i] < r.Finish[i-1] {
			t.Fatalf("task %d started before its predecessor finished", i)
		}
	}
}

func TestCentralizedOutOfOrderBeatsInOrderOnBadOrdering(t *testing.T) {
	// Adversarial submission order for in-order execution: a long chain
	// interleaved with independent tasks mapped to the same worker as the
	// chain's consumers. OoO can overtake; RIO cannot.
	g := stf.NewGraph("bad-order", 1)
	for i := 0; i < 10; i++ {
		g.Add(0, i, 0, 0, stf.RW(0)) // chain
		g.Add(0, i, 1, 0)            // independent
	}
	w := sim.UniformWorkload(g, 10*us)
	rio, err := sim.SimulateRIO(w, 2, sched.Single(0), zeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	cen, err := sim.SimulateCentralized(w, 3, zeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if cen.Makespan >= rio.Makespan {
		t.Errorf("OoO (%v) should beat single-worker in-order (%v) here", cen.Makespan, rio.Makespan)
	}
}

func TestCrossoverShapeMatchesPaper(t *testing.T) {
	// The headline shape of Figures 6/8 at the paper's scale (24 workers)
	// with the cost constants fitted on this machine's engines: at fine
	// granularity RIO wins, at coarse granularity the centralized model
	// catches up (and its makespan approaches n·t_t/(p-1)).
	rioCosts := sim.Costs{DeclareCost: 60 * time.Nanosecond, AcquireCost: 50 * time.Nanosecond, ReleaseCost: 50 * time.Nanosecond}
	cenCosts := sim.Costs{DispatchCost: 400 * time.Nanosecond, CompleteCost: 150 * time.Nanosecond}
	g := graphs.Independent(1 << 14)
	const p = 24
	fineWins, coarseClose := false, false
	for _, taskNs := range []time.Duration{100, 1000, 10_000, 100_000} {
		w := sim.UniformWorkload(g, taskNs)
		r1, err := sim.SimulateRIO(w, p, sched.Cyclic(p), rioCosts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sim.SimulateCentralized(w, p, cenCosts)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(r2.Makespan) / float64(r1.Makespan)
		if taskNs == 100 && ratio > 2 {
			fineWins = true
		}
		if taskNs == 100_000 && ratio < 1.2 {
			coarseClose = true
		}
	}
	if !fineWins {
		t.Error("RIO does not win at fine granularity in simulation")
	}
	if !coarseClose {
		t.Error("centralized does not catch up at coarse granularity in simulation")
	}
}

func TestMakespanNeverBeatsLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 50, 8)
		durs := make([]time.Duration, len(g.Tasks))
		for i := range durs {
			durs[i] = time.Duration(rng.Intn(100)) * us
		}
		w := sim.Workload{Graph: g, Duration: func(id stf.TaskID) time.Duration { return durs[id] }}
		p := 1 + rng.Intn(6)
		critical, work := stf.CriticalPath(g, w.Duration)
		bound := critical
		if perW := work / time.Duration(p); perW > bound {
			bound = perW
		}
		r1, err := sim.SimulateRIO(w, p, sched.Cyclic(p), zeroCosts())
		if err != nil || r1.Makespan < critical || r1.Makespan < work/time.Duration(p) {
			return false
		}
		if p >= 2 {
			r2, err := sim.SimulateCentralized(w, p+1, zeroCosts())
			if err != nil || r2.Makespan < critical || r2.Makespan < work/time.Duration(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestScheduleInternallyConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 40, 6)
		w := sim.UniformWorkload(g, time.Duration(1+rng.Intn(20))*us)
		p := 1 + rng.Intn(4)
		r, err := sim.SimulateRIO(w, p, sched.Cyclic(p), sim.Costs{DeclareCost: 100 * time.Nanosecond})
		if err != nil {
			return false
		}
		deps := g.Dependencies()
		for i := range g.Tasks {
			if r.Finish[i] < r.Start[i] {
				return false
			}
			for _, d := range deps[i] {
				if r.Start[i] < r.Finish[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSimulateValidation(t *testing.T) {
	g := graphs.Independent(3)
	w := sim.UniformWorkload(g, us)
	if _, err := sim.SimulateRIO(w, 0, sched.Cyclic(1), zeroCosts()); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := sim.SimulateRIO(w, 2, sched.Single(7), zeroCosts()); err == nil {
		t.Error("out-of-range mapping accepted")
	}
	if _, err := sim.SimulateCentralized(w, 1, zeroCosts()); err == nil {
		t.Error("centralized without executor accepted")
	}
}
