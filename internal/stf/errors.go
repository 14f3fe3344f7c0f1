package stf

import (
	"fmt"
	"strings"
)

// This file defines the structured failure vocabulary shared by all
// execution engines. The STF model itself cannot fail; these errors
// describe the ways an *execution* of an STF program can go wrong beyond a
// plain task panic: a run stopped while workers were blocked in dependency
// waits (StallError) and a replay that is not the same on every worker
// (DivergenceError). They live here, next to the programming-model types,
// so that every engine and the public API can share one vocabulary without
// import cycles.

// StalledWorker describes one worker that was blocked in a dependency wait
// when its run was stopped: the task whose acquisition was blocked and the
// data access that was unsatisfied.
type StalledWorker struct {
	Worker WorkerID
	Task   TaskID
	Data   DataID
	Mode   AccessMode
}

// StallError is the in-order engine's diagnosis of a stopped run or stream
// window (a failure elsewhere, a cancel, a deadline, a timeout): where each
// worker that the stop unwound from a dependency wait was blocked. A
// nondeterministic replay that deadlocks shows here once a deadline stops
// it. It is joined into the run's error; use errors.As to retrieve it.
type StallError struct {
	// Stalled lists the workers blocked in dependency waits.
	Stalled []StalledWorker
	// Divergence is non-nil when the replay-divergence guard could prove,
	// from the part of each worker's replay done before the stop, that the
	// workers were not replaying the same task flow — the usual root cause
	// of an in-order deadlock.
	Divergence *DivergenceError
}

// Error formats the full diagnosis on one line.
func (e *StallError) Error() string {
	var b strings.Builder
	b.WriteString("stopped with blocked workers")
	for _, s := range e.Stalled {
		fmt.Fprintf(&b, "; worker %d blocked at task %d waiting for %s access to data %d",
			s.Worker, s.Task, s.Mode, s.Data)
	}
	if e.Divergence != nil {
		fmt.Fprintf(&b, "; %v", e.Divergence)
	}
	return b.String()
}

// DivergenceError reports that the workers of a decentralized engine did
// not replay the same task flow — the program violated the determinism
// assumption of the in-order model (every replay must submit the same
// tasks with the same accesses in the same order). It is produced by the
// replay-divergence guard, either at the end of a run that completed with
// differing replay streams, or as the Divergence field of a StallError
// when a run stopped while a divergent replay was deadlocked.
type DivergenceError struct {
	// Window is the [Lo, Hi) task-index range in which the workers' replay
	// streams are first known to differ. The guard checkpoints its stream
	// hash periodically, so the window is a checkpoint stride wide, not a
	// single task.
	Window [2]TaskID
	// Counts holds each worker's submitted-task count: the whole stream
	// of a completed run, the position of a stopped one.
	Counts []int64
}

// Error describes the divergence.
func (e *DivergenceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay divergence: workers submitted different task flows, first differing in tasks [%d,%d)", e.Window[0], e.Window[1])
	if len(e.Counts) > 0 {
		fmt.Fprintf(&b, " (per-worker task counts %v)", e.Counts)
	}
	b.WriteString("; the program is nondeterministic: every worker must replay the same tasks with the same accesses in the same order")
	return b.String()
}
