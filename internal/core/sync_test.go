package core_test

// Synchronization-scalability tests for the dependency wait (adaptive spin,
// yield, event-gate park): sequential consistency, lost-wakeup stress under
// oversubscription, abort responsiveness while parked, and the agreement
// between idle-time accounting and the wait histogram. The park tests run
// with and without a steal policy: the one park serves both, differing only
// in the backstop cadence its wait loop picks. Tests that must reach the
// park phase on every wait shorten the escalation with core.SetWaitLimits.

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
	"rio/internal/trace"
)

// stealModes are the two states of Options.Steal the park tests cover.
var stealModes = []*stf.StealPolicy{nil, {}}

// The wait must preserve sequential consistency on dependency-dense flows:
// a strict chain, the many-readers/one-writer-chain contention shape,
// reduction rounds (the terminate_red wake path), and random DAGs.
func TestWaitPolicyMatrixSequentialConsistency(t *testing.T) {
	for _, g := range []*stf.Graph{
		graphs.Chain(200),
		graphs.ReadersWriter(30, 7),
		graphs.ReduceRounds(20, 11),
		graphs.RandomDeps(300, 16, 2, 1, 42),
	} {
		e := newEngine(t, core.Options{Workers: 4, Mapping: sched.Cyclic(4)})
		if err := enginetest.Check(e, g); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

// The compiled replay path shares the wait/park helpers; check it with
// every wait parking right after its spin phase.
func TestWaitPolicyCompiledReplay(t *testing.T) {
	m := sched.Cyclic(4)
	for _, g := range []*stf.Graph{
		graphs.ReadersWriter(25, 6),
		graphs.ReduceRounds(15, 9),
	} {
		cp, err := stf.Compile(g, m, 4, nil)
		if err != nil {
			t.Fatalf("compile %s: %v", g.Name, err)
		}
		e := newEngine(t, core.Options{Workers: 4, Mapping: m})
		core.SetWaitLimits(e, 1, 0)
		if err := enginetest.CheckCompiled(e, g, cp); err != nil {
			t.Errorf("%s (compiled): %v", g.Name, err)
		}
	}
}

// Lost-wakeup stress: GOMAXPROCS(1) oversubscription with a short spin
// phase and no yield phase sends every dependency wait onto the park gate,
// and the single hardware thread maximizes the window between a waiter's
// readiness check and its park — precisely where a lost wake would hang the
// run. Terminate orderings vary across repetitions (different graphs/seeds
// and scheduler interleavings); run with -race to also catch publication
// races between terminates and woken waiters.
func TestLostWakeupStressOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reps := 5
	if testing.Short() {
		reps = 2
	}
	for _, steal := range stealModes {
		for rep := 0; rep < reps; rep++ {
			e := newEngine(t, core.Options{Workers: 16, Mapping: sched.Cyclic(16), Steal: steal})
			core.SetWaitLimits(e, 1, 0)
			for _, g := range []*stf.Graph{
				graphs.Chain(120),
				graphs.ReadersWriter(12, 15),
				graphs.ReduceRounds(8, 15),
				graphs.RandomDeps(200, 8, 2, 1, int64(100+rep)),
			} {
				if err := enginetest.Check(e, g); err != nil {
					t.Fatalf("steal %v rep %d, %s: %v", steal != nil, rep, g.Name, err)
				}
			}
		}
	}
}

// Reduction contention on the wake path: rounds of one writer followed by
// many reducers on a single datum, with a short spin phase and no yield
// phase so every dependency wait parks. Each round's reducers park on
// terminate_write's wake, and the next round's writer parks until the last
// terminateRed publishes its wake — the exact transitions the waiter
// registry added.
// Real closures (not the synthetic trace kernel) check the values: red
// bodies commute but must not overlap (redMu), and the writer must observe
// every prior round fully drained.
func TestReductionContentionWake(t *testing.T) {
	const (
		workers  = 8
		rounds   = 6
		reducers = 23 // not a multiple of workers: reds of one run span all workers unevenly
	)
	for _, steal := range stealModes {
		e := newEngine(t, core.Options{Workers: workers, Mapping: sched.Cyclic(workers), Steal: steal})
		core.SetWaitLimits(e, 1, 0)
		var sum int64
		var snaps [rounds]int64
		err := e.Run(1, func(s stf.Submitter) {
			for r := 0; r < rounds; r++ {
				r := r
				s.Submit(func() { snaps[r] = sum; sum++ }, stf.RW(0))
				for j := 0; j < reducers; j++ {
					s.Submit(func() { sum++ }, stf.Red(0))
				}
			}
		})
		if err != nil {
			t.Fatalf("steal %v: %v", steal != nil, err)
		}
		for r := 0; r < rounds; r++ {
			if want := int64(r) * (reducers + 1); snaps[r] != want {
				t.Errorf("steal %v: round %d writer saw sum %d, want %d (a reduction of an earlier run had not terminated)",
					steal != nil, r, snaps[r], want)
			}
		}
		if want := int64(rounds) * (reducers + 1); sum != want {
			t.Errorf("steal %v: final sum %d, want %d (overlapping reduction bodies lost updates)", steal != nil, sum, want)
		}
	}
}

// A panic on one worker must wake and unwind waiters parked on its
// unpublished dependencies: the abort latch's wake-all covers the event
// gates, not only the polling phases. The producer panics only after the
// waiter's wait has begun, and a millisecond later: with no yield phase
// the waiter is parked by then.
func TestAbortWakesParkedWaiters(t *testing.T) {
	for _, steal := range stealModes {
		waiting := make(chan struct{})
		var once sync.Once
		hooks := &stf.Hooks{OnWaitStart: func(stf.WorkerID, stf.TaskID, stf.Access) { once.Do(func() { close(waiting) }) }}
		e := newEngine(t, core.Options{Workers: 2, Mapping: sched.Cyclic(2), Steal: steal, Hooks: hooks})
		core.SetWaitLimits(e, 1, 0)
		err := e.Run(1, func(s stf.Submitter) {
			s.Submit(func() { // worker 0
				<-waiting
				time.Sleep(time.Millisecond)
				panic("boom")
			}, stf.W(0))
			s.Submit(func() {}, stf.RW(0)) // worker 1: parks on data 0
		})
		if err == nil {
			t.Fatalf("steal %v: run with a panicking producer returned nil", steal != nil)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Fatalf("steal %v: error does not carry the panic: %v", steal != nil, err)
		}
	}
}

// Idle-time accounting and the wait histogram must agree: a forced
// multi-millisecond dependency wait shows up in both (and lands in a
// millisecond-scale bucket), and under NoAccounting both stay empty — no
// half-updated state.
func TestIdleAccountingMatchesWaitHistogram(t *testing.T) {
	const delay = 4 * time.Millisecond
	run := func(t *testing.T, noAcct bool) (*trace.Stats, trace.Progress) {
		t.Helper()
		e := newEngine(t, core.Options{Workers: 2, Mapping: sched.Cyclic(2), NoAccounting: noAcct})
		err := e.Run(1, func(s stf.Submitter) {
			s.Submit(func() { time.Sleep(delay) }, stf.W(0))
			s.Submit(func() {}, stf.RW(0))
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats(), e.Progress()
	}
	st, pr := run(t, false)
	idle := st.Workers[1].Idle
	if idle < delay/2 {
		t.Errorf("worker 1 idle = %v, want >= %v", idle, delay/2)
	}
	hist := pr.WaitHist()
	var total, slow int64
	for b, n := range hist {
		total += n
		if b >= 2 { // >= 10µs: where a multi-millisecond wait must land
			slow += n
		}
	}
	if total == 0 {
		t.Errorf("idle accounted (%v) but wait histogram empty", idle)
	}
	if slow == 0 {
		t.Errorf("no wait landed in a >=10µs bucket despite a %v dependency delay (hist %v)", delay, hist)
	}

	st, pr = run(t, true)
	if got := st.Workers[1].Idle; got != 0 {
		t.Errorf("NoAccounting: idle = %v, want 0", got)
	}
	for b, n := range pr.WaitHist() {
		if n != 0 {
			t.Errorf("NoAccounting: wait histogram bucket %d = %d, want empty", b, n)
		}
	}
}

// Reusing one engine across runs must reseed the adaptive budget from the
// previous run's histogram without perturbing correctness (the seed path
// reads the previous progress table just before it is replaced).
func TestAdaptiveReuseAcrossRuns(t *testing.T) {
	e := newEngine(t, core.Options{Workers: 4, Mapping: sched.Cyclic(4)})
	for rep := 0; rep < 3; rep++ {
		if err := enginetest.Check(e, graphs.ReadersWriter(20, 7)); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if err := enginetest.Check(e, graphs.Independent(100)); err != nil {
			t.Fatalf("rep %d (independent): %v", rep, err)
		}
	}
}
