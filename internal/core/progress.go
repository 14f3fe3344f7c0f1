package core

import (
	"rio/internal/trace"
)

// Always-on run counters. Every worker keeps its run record in its cell of
// the run's trace.ProgressTable (padded per-worker cells, atomic
// publication, shared by all engines): the counters are published on every
// run so that any goroutine can snapshot the run's progress mid-flight via
// Engine.Progress (trace.LastRun) — the "is the flow moving, who is the
// straggler" question the watchdog only answers once it has already given
// up — and the same cells give the stall watchdog its readings and Stats
// its decomposition.

// adaptiveSeed derives the starting per-worker spin budget of a run from
// the previous run's wait histogram (the same feedback signal the per-wait
// adaptation uses, aggregated): a run whose waits overwhelmingly resolved in
// busy-poll territory (≤ 10µs) starts the next run with a larger budget; a
// run dominated by long waits starts small and parks early. With no history
// (first run, or NoAccounting leaving the histogram empty) base is used
// unchanged.
func adaptiveSeed(hist [trace.NumWaitBuckets]int64, base int) int {
	var short, long int64
	for b, n := range hist {
		if b <= 1 { // ≤ 10µs, see trace.WaitBucketBounds
			short += n
		} else {
			long += n
		}
	}
	switch {
	case short+long == 0:
		return base
	case long*4 <= short:
		return min(base*8, maxSpinBudget)
	case short*4 <= long:
		return max(base/4, minSpinBudget)
	}
	return base
}
