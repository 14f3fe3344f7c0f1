package core

import (
	"runtime"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// The wait's escalation lengths. The yield phase keeps the engine live even
// when goroutines outnumber hardware threads (GOMAXPROCS oversubscription).
const (
	// spinSeed is the busy-poll budget a worker's first wait of a run
	// starts from (see adaptiveSeed); the budget then floats between the
	// adaptive bounds below.
	spinSeed = 128
	// yieldIters is the number of Gosched-polling iterations after the
	// spin phase before the wait parks.
	yieldIters = 1024
)

// Adaptive spin-budget bounds. The budget moves by powers of two between
// these bounds, fed back from each completed wait: a wait the busy-poll
// phase caught grows it, a wait that had to escalate shrinks it.
const (
	minSpinBudget = 16
	maxSpinBudget = 4096
)

// Failsafe timeout of a parked waiter. Wakes are event-driven (terminates
// and the abort latch publish them), so the backstop exists only to bound
// the damage of a missed-wake bug. A wait without steal state starts at
// parkBackstop and doubles per expiry up to parkBackstopMax, so a
// pathological case degrades to slow polling instead of a busy timer loop;
// a steal-armed wait keeps the parkBackstop cadence, because each expiry is
// also its next steal attempt.
const (
	parkBackstop    = 100 * time.Microsecond
	parkBackstopMax = 10 * time.Millisecond
)

// wait blocks until cond() holds, accounting the elapsed time as idle time
// (τ_{p,i}) when accounting is enabled. id and a identify the acquiring
// task and the unsatisfied data access, for the wait hooks and, should the
// run stop, for its diagnosis; sh is the data object's shared cell, whose
// event gate the slow phase parks on.
//
// The wait escalates in three phases, trading latency for CPU use:
//
//  1. busy-poll for the worker's spin budget — a dependency produced by a
//     worker running on another core typically resolves within
//     nanoseconds. The budget is per-worker and fed back from completed
//     waits.
//  2. poll with runtime.Gosched() for yieldIters iterations — lets the
//     producing goroutine run when goroutines are multiplexed on fewer
//     hardware threads.
//  3. park. The phase polls the run-abort flag so that a dependency held
//     by a failed worker cannot block forever: a wait the abort unwinds
//     leaves the task and access it was blocked on in the worker's error
//     slot (stalled), which the run's verdict lists. It parks on sh's
//     event gate (woken by the terminate that publishes the dependency, or
//     by the abort latch's wake-all), one round per iteration, so this
//     loop's re-check of cond, the abort flag and the steal attempt run
//     between rounds.
//
// Every phase keeps the wait's obligations: one OnWaitEnd per OnWaitStart,
// abort responsiveness, idle-time accounting. Nothing is stored for a
// diagnosis unless the run stops.
//
// cond must read shared state with atomic loads; it is called repeatedly.
func (s *submitter) wait(id stf.TaskID, a stf.Access, sh *sharedState, cond func() bool) {
	if cond() {
		return
	}
	if a.Mode == stf.None && s.hooks != nil { // a compiled stream's get
		a.Mode = s.declaredMode(id, a.Data)
	}
	if h := s.hooks; h != nil && h.OnWaitStart != nil {
		h.OnWaitStart(s.worker, id, a)
	}
	var t0 time.Duration
	if !s.eng.noAcct {
		t0 = trace.Stamp()
	}

	spinCap := s.spinBudget
	yieldCap := spinCap + s.eng.yieldIters

	spin := 0
	backstop := parkBackstop
	for !cond() {
		spin++
		switch {
		case spin < spinCap:
			// busy poll
		case spin < yieldCap:
			runtime.Gosched()
		default:
			// A dependency held by a failed (panicked, canceled) worker
			// will never resolve; bail out once the run is aborting,
			// saying where this worker was blocked.
			if s.abort.raised() {
				if a.Mode == stf.None {
					a.Mode = s.declaredMode(id, a.Data)
				}
				s.fail(&stalled{stf.StalledWorker{Worker: s.worker, Task: id, Data: a.Data, Mode: a.Mode}})
				break
			}
			// A provably idle worker (slow-phase wait) is the steal
			// trigger: one bounded attempt per slow iteration, then back
			// to the condition (a stolen task may have been our own
			// blocker's producer — or our own task, taken by a thief).
			if s.steal != nil && s.trySteal() {
				if s.err != nil {
					break // terminal stolen-task failure: unwind below
				}
				continue
			}
			if s.park(sh, cond, backstop) && s.steal == nil && backstop < parkBackstopMax {
				backstop *= 2 // failsafe expiry: back off (see parkBackstop)
			}
		}
		if s.err != nil {
			break
		}
	}
	if !s.eng.noAcct {
		waited := trace.Stamp() - t0
		s.idle += waited
		s.prog.AddWait(waited)
	}
	// Feed the outcome back into the worker's spin budget by which
	// escalation phase resolved the wait. Only a wait the busy-poll phase
	// itself caught justifies more spinning; a wait that resolved after
	// yielding (or parking) means the producer needed the core — on
	// dedicated cores growing would not have changed the latency, and
	// oversubscribed it would have delayed the producer — so the budget
	// shrinks. Duration is deliberately not the signal: at GOMAXPROCS=1
	// every hand-off is "fast" by the histogram yet every busy-polled
	// iteration is pure critical-path delay.
	if spin < spinCap {
		s.spinBudget = min(s.spinBudget*2, maxSpinBudget)
	} else {
		s.spinBudget = max(s.spinBudget/2, minSpinBudget)
	}
	if h := s.hooks; h != nil && h.OnWaitEnd != nil {
		h.OnWaitEnd(s.worker, id, a)
	}
}

// park blocks on sh's event gate for one round: until one wake or until the
// backstop expires, which it reports. The caller's wait loop re-checks cond
// and the abort latch (and interleaves steal attempts) between rounds. The
// gate protocol is lost-wakeup-free: register with the waiter counter first,
// fetch the gate channel, then re-check cond and the abort latch before
// blocking — any release or abort published before the fetch is visible to
// the re-check, and any published after it observes the registration and
// closes the fetched channel (see sharedCell.wake).
func (s *submitter) park(sh *sharedState, cond func() bool, backstop time.Duration) (expired bool) {
	sh.waiters.Add(1)
	defer sh.waiters.Add(-1)
	ch := sh.parkChan()
	if cond() || s.abort.raised() {
		return false
	}
	t := s.parkTimer
	if t == nil {
		t = time.NewTimer(backstop)
		s.parkTimer = t
	} else {
		t.Reset(backstop)
	}
	select {
	case <-ch:
	case <-t.C:
		expired = true
	}
	t.Stop()
	return expired
}
