package core

import (
	"sync"
	"sync/atomic"

	"rio/internal/stf"
)

// Run hardening: the paper's protocol trusts the program — a
// nondeterministic replay, an out-of-range mapping or a panicking body
// would silently wedge every worker inside a dependency wait. This file
// adds the two defenses that turn such a failure into a descriptive error:
//
//   - abortState: a shared run-abort latch with a recorded first cause,
//     raised by panics, protocol violations and the run's context (cancel,
//     deadline, timeout); dependency waits poll it in their slow phase and
//     unwind, each keeping where it was blocked in its worker's error slot,
//     which is what a stopped run's StallError lists (verdict).
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
	// whether it originated outside any worker's own error slot (the run's
	// context, a window's timeout) and must therefore be reported
	// separately.
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

// stalled is the error slot of a worker the abort unwound from a dependency
// wait: errAborted, and where the worker was blocked. Only a stopping run
// makes one.
type stalled struct{ stf.StalledWorker }

func (e *stalled) Error() string { return errAborted.Error() }
func (e *stalled) Unwrap() error { return errAborted }

// guardStride is the checkpoint period of the divergence guard: every
// stride tasks, a worker appends its running stream hash to its checkpoint
// trail.
const guardStride = 256

// guardState is one worker's replay-divergence guard. It is private to the
// worker while the run is live and read by guardVerdict only once every
// worker has been joined, so none of it is shared memory.
type guardState struct {
	count int64  // tasks folded so far
	hash  uint64 // running stream hash
	// gapSeen records that the replay skipped IDs (a pruned flow, §3.5):
	// per-worker streams then differ legitimately and the cross-worker
	// check is disabled.
	gapSeen bool
	marks   []uint64 // hash checkpoints, one per guardStride tasks
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
// in private memory, plus one checkpoint append per guardStride tasks.
func (g *guardState) fold(id stf.TaskID, accesses []stf.Access) {
	h := mix64(g.hash, uint64(id))
	for _, a := range accesses {
		h = mix64(h, uint64(a.Data)<<8|uint64(a.Mode))
	}
	g.hash = h
	g.count++
	if g.count%guardStride == 0 {
		g.marks = append(g.marks, h)
	}
}

// guardVerdict is the cross-worker divergence check of a run whose workers
// have all been joined, completed or stopped: it returns a DivergenceError
// when the workers' streams provably disagree, else nil (also when the
// guard is off). Pruned replays legitimately differ per worker (the pruning
// contract covers their safety), so any worker that skipped IDs disables
// the check — and since a trailing prune produces no observable gap,
// differing task *counts* alone are never reported; only differing
// checkpoints within the common prefix, or equal-length streams with
// differing hashes, are provable divergence. A stopped run's streams end
// where each worker was stopped, so two workers stopped at one position
// with different hashes prove it too.
func guardVerdict(subs []*submitter) *stf.DivergenceError {
	if len(subs) < 2 || subs[0].guard == nil {
		return nil
	}
	base := subs[0].guard
	equal, common := true, len(base.marks)
	for _, s := range subs {
		g := s.guard
		if g.gapSeen {
			return nil
		}
		equal = equal && g.count == base.count && g.hash == base.hash
		common = min(common, len(g.marks))
	}
	if equal {
		return nil
	}
	counts := make([]int64, len(subs))
	for i, s := range subs {
		counts[i] = s.guard.count
	}
	// Two workers disagreeing on the same checkpoint prove a divergence
	// inside that stride.
	for m := 0; m < common; m++ {
		for _, s := range subs[1:] {
			if s.guard.marks[m] != base.marks[m] {
				lo := stf.TaskID(m * guardStride)
				return &stf.DivergenceError{Window: [2]stf.TaskID{lo, lo + guardStride}, Counts: counts}
			}
		}
	}
	// Two workers at the same stream position with different hashes prove
	// a divergence since their last checkpoint.
	for i, a := range subs {
		for _, b := range subs[i+1:] {
			if ga, gb := a.guard, b.guard; ga.count > 0 && ga.count == gb.count && ga.hash != gb.hash {
				lo := stf.TaskID(min(len(ga.marks), len(gb.marks)) * guardStride)
				return &stf.DivergenceError{Window: [2]stf.TaskID{lo, stf.TaskID(ga.count)}, Counts: counts}
			}
		}
	}
	// Differing counts without an observed gap are indistinguishable from
	// a trailing prune: not provable, stay silent.
	return nil
}
