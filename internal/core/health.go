package core

import (
	"sync"
	"sync/atomic"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// Run hardening: the paper's protocol trusts the program — a
// nondeterministic replay, an out-of-range mapping or a task that never
// finishes would silently wedge every worker inside a dependency wait.
// This file adds the three defenses that turn such a hang into a prompt,
// descriptive error:
//
//   - abortState: a shared run-abort latch with a recorded first cause,
//     raised by panics, protocol violations, context cancellation and the
//     watchdog; dependency waits poll it in their sleep phase and unwind.
//   - the stall watchdog: a monitor goroutine that reads every worker's
//     progress cell (its completions, the task it executes, the slow wait
//     it is blocked in — published only when the watchdog is armed — and
//     whether it has exited) and distinguishes global deadlock (all live
//     workers blocked, nothing completing) from mere imbalance (completions
//     still happening), and from a stuck task (a body overrunning the
//     threshold), and aborts with a StallError.
//   - guardState: the replay-divergence guard — each worker folds its
//     observed (taskID, accesses) stream into a running hash with periodic
//     checkpoints, so diverging replays are reported as a DivergenceError
//     instead of a silent hang or corruption.

// abortState is the run-wide abort latch. The flag is polled by dependency
// waits (and once per task submission); the first recorded cause wins.
type abortState struct {
	flag atomic.Bool
	mu   sync.Mutex
	// cause is the first error that aborted the run. external records
	// whether it originated outside any worker's own error slot (context
	// cancellation, watchdog) and must therefore be reported separately.
	cause    error
	external bool
	// shared are the data the run or window synchronizes on. An abort must
	// reach waiters parked on their event gates, not only polling ones, so
	// every raise wakes every gate. Set at construction, never concurrently
	// with raise.
	shared []sharedState
}

// raised reports whether the run is aborting.
func (a *abortState) raised() bool { return a.flag.Load() }

// raise aborts the run with err as the cause if none was recorded yet.
// external marks causes that are not already recorded in a worker's err.
func (a *abortState) raise(err error, external bool) {
	a.mu.Lock()
	if a.cause == nil {
		a.cause = err
		a.external = external
	}
	a.mu.Unlock()
	a.flag.Store(true)
	for i := range a.shared {
		a.shared[i].wake()
	}
}

// state returns the recorded cause.
func (a *abortState) state() (cause error, external bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cause, a.external
}

// guardStride is the checkpoint period of the divergence guard: every
// stride tasks, a worker commits its running stream hash to a shared
// checkpoint list (under a mutex, amortized over the stride).
const guardStride = 256

// guardState is one worker's replay-divergence guard. The hot-path fields
// (count, hash, gapSeen) are private to the worker; the mutexed section is
// the committed view the watchdog may read mid-run: the checkpoint trail
// plus the latest committed (count, hash) head, refreshed at every
// checkpoint and whenever the worker enters a slow dependency wait.
type guardState struct {
	count   int64  // tasks folded so far
	hash    uint64 // running stream hash
	gapSeen bool   // worker-local fast mirror of sawGap

	// sawGap records that the replay skipped IDs (a pruned flow, §3.5):
	// per-worker streams then differ legitimately and the cross-worker
	// check is disabled.
	sawGap atomic.Bool

	mu        sync.Mutex
	marks     []uint64 // hash checkpoints, one per guardStride tasks
	headCount int64    // committed stream position
	headHash  uint64   // committed stream hash at headCount
}

// mix64 is a splitmix64-style non-commutative combiner.
func mix64(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 + b + 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0x94D049BB133111EB
	x ^= x >> 27
	return x
}

// fold absorbs one observed task (ID and access list) into the stream
// hash. This is the guard's whole per-task cost: a few multiply-xor steps
// in private memory, plus one mutexed checkpoint per guardStride tasks.
func (g *guardState) fold(id stf.TaskID, accesses []stf.Access) {
	h := mix64(g.hash, uint64(id))
	for _, a := range accesses {
		h = mix64(h, uint64(a.Data)<<8|uint64(a.Mode))
	}
	g.hash = h
	g.count++
	if g.count%guardStride == 0 {
		g.mu.Lock()
		g.marks = append(g.marks, h)
		g.headCount = g.count
		g.headHash = h
		g.mu.Unlock()
	}
}

// markGap records that this worker's replay skipped task IDs.
func (g *guardState) markGap() {
	if !g.gapSeen {
		g.gapSeen = true
		g.sawGap.Store(true)
	}
}

// commitHead publishes the worker's exact stream position; called when the
// worker parks in a slow dependency wait, so a deadlock diagnosis can
// compare the stalled workers' positions.
func (g *guardState) commitHead() {
	g.mu.Lock()
	g.headCount = g.count
	g.headHash = g.hash
	g.mu.Unlock()
}

// committed returns the checkpoint trail and head under the lock.
func (g *guardState) committed() (marks []uint64, headCount int64, headHash uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]uint64(nil), g.marks...), g.headCount, g.headHash
}

// divergencePrefix compares the committed checkpoint trails and heads of
// all workers and returns a DivergenceError if any two provably disagree —
// safe to call mid-run (it reads only committed state). Pruned flows (any
// worker with an ID gap) are exempt: their streams differ by design.
// Returns nil when the guard is off or no divergence is provable.
func divergencePrefix(subs []*submitter) *stf.DivergenceError {
	if len(subs) < 2 || subs[0].guard == nil {
		return nil
	}
	trails := make([][]uint64, len(subs))
	headCounts := make([]int64, len(subs))
	headHashes := make([]uint64, len(subs))
	minLen := -1
	for i, s := range subs {
		if s.guard.sawGap.Load() {
			return nil
		}
		trails[i], headCounts[i], headHashes[i] = s.guard.committed()
		if minLen < 0 || len(trails[i]) < minLen {
			minLen = len(trails[i])
		}
	}
	// Two workers disagreeing on the same checkpoint prove a divergence
	// inside that stride.
	for m := 0; m < minLen; m++ {
		for i := 1; i < len(trails); i++ {
			if trails[i][m] != trails[0][m] {
				lo := stf.TaskID(m * guardStride)
				return &stf.DivergenceError{Window: [2]stf.TaskID{lo, lo + guardStride}}
			}
		}
	}
	// Two workers parked at the same stream position with different
	// hashes prove a divergence since their last agreeing checkpoint.
	for i := range subs {
		for j := i + 1; j < len(subs); j++ {
			if headCounts[i] > 0 && headCounts[i] == headCounts[j] && headHashes[i] != headHashes[j] {
				lo := min(len(trails[i]), len(trails[j])) * guardStride
				return &stf.DivergenceError{Window: [2]stf.TaskID{stf.TaskID(lo), stf.TaskID(headCounts[i])}}
			}
		}
	}
	return nil
}

// guardVerdict is the end-of-run cross-worker divergence check: with all
// workers finished (so their private guard fields are safely readable), it
// verifies that every worker folded the same stream. Pruned replays
// legitimately differ per worker (the pruning contract covers their
// safety), so any worker that skipped IDs disables the check — and since a
// trailing prune produces no observable gap, differing task *counts* alone
// are never reported; only equal-length streams with differing hashes (or
// differing checkpoints within the common prefix) are provable divergence.
func guardVerdict(subs []*submitter) error {
	if len(subs) < 2 || subs[0].guard == nil {
		return nil
	}
	base := subs[0].guard
	counts := make([]int64, len(subs))
	equalStreams := true
	for i, s := range subs {
		g := s.guard
		if g.gapSeen {
			return nil
		}
		counts[i] = g.count
		if g.count != base.count || g.hash != base.hash {
			equalStreams = false
		}
	}
	if equalStreams {
		return nil
	}
	if div := divergencePrefix(subs); div != nil {
		div.Counts = counts
		return div
	}
	// Same-length streams with different hashes: divergence in the
	// uncheckpointed tail.
	allSameCount := true
	for _, c := range counts {
		if c != counts[0] {
			allSameCount = false
		}
	}
	if allSameCount {
		common := -1
		for _, s := range subs {
			marks, _, _ := s.guard.committed()
			if common < 0 || len(marks) < common {
				common = len(marks)
			}
		}
		return &stf.DivergenceError{
			Window: [2]stf.TaskID{stf.TaskID(common * guardStride), stf.TaskID(counts[0])},
			Counts: counts,
		}
	}
	// Differing counts without an observed gap are indistinguishable from
	// a trailing prune: not provable, stay silent.
	return nil
}

// stallGrace is how long Run waits, after the watchdog has aborted the
// run, for the workers to unwind before giving up on them. Workers blocked
// in dependency waits poll the abort flag within at most ~100µs sleeps, so
// this is generous; only a worker wedged inside a task body can miss it.
const stallGrace = 500 * time.Millisecond

// monitor is the stall watchdog goroutine. Every tick it reads the
// workers' progress cells; when no task completes for the configured
// threshold it inspects the states it read and, if they prove a deadlock or
// a stuck task (rather than mere imbalance or a long replay), aborts the run
// with a StallError and delivers the diagnosis on stalled. It closes stalled
// on its way out, verdict or not, which is how execute joins it.
//
// No worker reads a clock for it: the monitor dates each worker's state
// itself, by the first tick that read it, so a state's age is measured at
// tick resolution and never exceeds its true age.
func (e *Engine) monitor(subs []*submitter, abort *abortState, done <-chan struct{}, stalled chan<- *stf.StallError) {
	defer close(stalled)
	threshold := e.stallTimeout
	ticker := time.NewTicker(min(max(threshold/8, time.Millisecond), time.Second))
	defer ticker.Stop()

	// Per worker, the state the last tick read and the tick that first read it.
	seen := make([]struct {
		trace.WorkerState
		since time.Duration
	}, len(subs))
	lastSum := int64(-1)
	lastProgress := trace.Stamp()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		if abort.raised() {
			// The run is already failing for another reason; the workers
			// unwind through the same flag the watchdog would have raised.
			return
		}
		now := trace.Stamp()
		var sum int64
		for w, s := range subs {
			if ws := s.prog.State(); ws != seen[w].WorkerState {
				seen[w].WorkerState, seen[w].since = ws, now
			}
			sum += seen[w].Executed
			// A worker finishing its replay is progress too.
			if seen[w].Exited {
				sum++
			}
		}
		if sum != lastSum {
			lastSum, lastProgress = sum, now
			continue
		}
		if now-lastProgress < threshold {
			continue
		}

		st := &stf.StallError{Threshold: threshold}
		allBlockedOrDone := true
		longBusy := false
		for i, ws := range seen {
			w, age := stf.WorkerID(i), now-ws.since
			switch {
			case ws.Exited:
				st.Done = append(st.Done, w)
			case ws.Current != stf.NoTask:
				// Executing, possibly a task stolen inside a slow wait.
				allBlockedOrDone = false
				longBusy = longBusy || age >= threshold
				st.Busy = append(st.Busy, stf.BusyWorker{Worker: w, Task: ws.Current, For: age})
			case ws.Waiting != stf.NoTask:
				st.Stalled = append(st.Stalled, stf.StalledWorker{
					Worker: w, Task: ws.Waiting, Data: ws.WaitOn.Data, Mode: ws.WaitOn.Mode, For: age,
				})
			default:
				// Actively unrolling the flow: not conclusive, keep
				// watching.
				allBlockedOrDone = false
			}
		}
		switch {
		case len(st.Stalled) > 0 && allBlockedOrDone:
			st.Kind = stf.Deadlock
		case longBusy:
			st.Kind = stf.StuckTask
		default:
			// Completions may merely be rare (long declare stretches, a
			// task just under the threshold): not provably stalled.
			continue
		}
		st.Divergence = divergencePrefix(subs)
		abort.raise(st, true)
		stalled <- st
		return
	}
}
