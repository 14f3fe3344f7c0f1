package trace

import (
	"sync/atomic"
	"time"
	"unsafe"

	"rio/internal/stf"
)

// NumWaitBuckets is the number of buckets of the per-worker wait-time
// histogram: seven bounded buckets plus one overflow bucket.
const NumWaitBuckets = 8

// WaitBucketBounds are the upper bounds of the first NumWaitBuckets-1
// histogram buckets; the last bucket counts waits of at least the largest
// bound. The exponential spacing spans the engine's wait escalation: the
// sub-microsecond buckets are busy-poll territory, the middle ones cover
// the Gosched and sleep phases, the top ones are stall territory.
var WaitBucketBounds = [NumWaitBuckets - 1]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// WaitBucket returns the histogram bucket index for a wait of duration d.
func WaitBucket(d time.Duration) int {
	for i, b := range WaitBucketBounds {
		if d < b {
			return i
		}
	}
	return NumWaitBuckets - 1
}

// WorkerProgress is one worker's slice of a Progress snapshot.
type WorkerProgress struct {
	// Executed, Declared and Claimed count this worker's tasks so far,
	// with the semantics of the WorkerStats fields of the same names.
	// One addition: in the centralized engine the master's Declared counts
	// the tasks it has submitted so far (its mid-run unrolling position).
	Executed int64 `json:"executed"`
	Declared int64 `json:"declared"`
	Claimed  int64 `json:"claimed"`
	// Retried counts rolled-back-and-retried task attempts, Skipped the
	// tasks a Resume checkpoint let this worker skip (fault tolerance).
	Retried int64 `json:"retried"`
	Skipped int64 `json:"skipped"`
	// Stolen counts executed tasks taken from other workers' static
	// assignments under a steal policy; StealFailed counts steal attempts
	// that lost the claim race after proving a task ready.
	Stolen      int64 `json:"stolen"`
	StealFailed int64 `json:"steal_failed"`
	// Current is the ID of the task this worker is executing right now,
	// or stf.NoTask (-1) when it is between tasks (replaying, waiting or
	// done).
	Current stf.TaskID `json:"current"`
	// WaitHist is the histogram of completed dependency-wait durations
	// (bucket bounds in WaitBucketBounds). Populated only when accounting
	// is enabled: under NoAccounting waits are not timed.
	WaitHist [NumWaitBuckets]int64 `json:"wait_hist"`
}

// Progress is a mid-run snapshot of a run's always-on counters, readable
// from any goroutine while the run is in flight (engines publish the
// counters with atomic stores on per-worker cache lines). After a run
// finishes the last run's final counters stay readable.
type Progress struct {
	// Running reports whether a run is currently in flight.
	Running bool `json:"running"`
	// Workers holds one entry per engine thread, aligned with
	// Stats.Workers (for the centralized engine index 0 is the master).
	Workers []WorkerProgress `json:"workers"`
}

// Executed returns the total tasks executed so far across workers.
func (p *Progress) Executed() int64 {
	var n int64
	for i := range p.Workers {
		n += p.Workers[i].Executed
	}
	return n
}

// Declared returns the total declare-only task visits so far.
func (p *Progress) Declared() int64 {
	var n int64
	for i := range p.Workers {
		n += p.Workers[i].Declared
	}
	return n
}

// Claimed returns the total dynamically claimed executions so far.
func (p *Progress) Claimed() int64 {
	var n int64
	for i := range p.Workers {
		n += p.Workers[i].Claimed
	}
	return n
}

// Retried returns the total retried task attempts so far.
func (p *Progress) Retried() int64 {
	var n int64
	for i := range p.Workers {
		n += p.Workers[i].Retried
	}
	return n
}

// Skipped returns the total resume-skipped tasks so far.
func (p *Progress) Skipped() int64 {
	var n int64
	for i := range p.Workers {
		n += p.Workers[i].Skipped
	}
	return n
}

// Stolen returns the total stolen task executions so far.
func (p *Progress) Stolen() int64 {
	var n int64
	for i := range p.Workers {
		n += p.Workers[i].Stolen
	}
	return n
}

// StealFailed returns the total lost steal claim races so far.
func (p *Progress) StealFailed() int64 {
	var n int64
	for i := range p.Workers {
		n += p.Workers[i].StealFailed
	}
	return n
}

// WaitHist returns the wait-duration histogram summed across workers.
func (p *Progress) WaitHist() [NumWaitBuckets]int64 {
	var h [NumWaitBuckets]int64
	for i := range p.Workers {
		for b, n := range p.Workers[i].WaitHist {
			h[b] += n
		}
	}
	return h
}

// ProgressCell is one worker's published counter block inside a
// ProgressTable. Each cell is cache-line padded and owned by exactly one
// worker, which publishes with uncontended atomic stores of its private
// tallies — no read-modify-write on shared lines, so the always-on cost is
// one atomic store per declare and three per execution. The wait histogram
// is the one field that is not always on: a wait has to be timed to be
// bucketed, so only accounted runs call AddWait and a NoAccounting run
// leaves it empty.
type ProgressCell struct {
	progressCounters
	// Pad to a cache-line multiple to keep neighboring workers off this
	// line; computed, not hand-counted, so it stays correct when the
	// counter block grows.
	_ [(cacheLine - unsafe.Sizeof(progressCounters{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granularity ProgressCell pads to.
const cacheLine = 64

// progressCounters is the payload of a ProgressCell.
type progressCounters struct {
	executed    atomic.Int64
	declared    atomic.Int64
	claimed     atomic.Int64
	retried     atomic.Int64
	skipped     atomic.Int64
	stolen      atomic.Int64
	stealFailed atomic.Int64
	current     atomic.Int64 // task ID being executed, or stf.NoTask
	waitHist    [NumWaitBuckets]atomic.Int64
}

// StoreExecuted publishes the worker's executed-task tally.
func (c *ProgressCell) StoreExecuted(n int64) { c.executed.Store(n) }

// StoreDeclared publishes the worker's declare-only tally.
func (c *ProgressCell) StoreDeclared(n int64) { c.declared.Store(n) }

// StoreClaimed publishes the worker's dynamically-claimed tally.
func (c *ProgressCell) StoreClaimed(n int64) { c.claimed.Store(n) }

// StoreRetried publishes the worker's retried-attempt tally.
func (c *ProgressCell) StoreRetried(n int64) { c.retried.Store(n) }

// StoreSkipped publishes the worker's resume-skipped tally.
func (c *ProgressCell) StoreSkipped(n int64) { c.skipped.Store(n) }

// StoreStolen publishes the worker's stolen-execution tally.
func (c *ProgressCell) StoreStolen(n int64) { c.stolen.Store(n) }

// StoreStealFailed publishes the worker's lost-steal-race tally.
func (c *ProgressCell) StoreStealFailed(n int64) { c.stealFailed.Store(n) }

// SetCurrent publishes the task the worker is executing (stf.NoTask to
// clear).
func (c *ProgressCell) SetCurrent(id stf.TaskID) { c.current.Store(int64(id)) }

// AddWait buckets one completed dependency wait of duration d.
func (c *ProgressCell) AddWait(d time.Duration) {
	c.waitHist[WaitBucket(d)].Add(1)
}

// ProgressTable is the always-on counter table of one run, shared by the
// engines: one padded cell per worker plus a running flag. Engines publish
// a fresh table at run start through an atomic pointer, so snapshots never
// race with run setup or teardown.
type ProgressTable struct {
	running atomic.Bool
	workers []ProgressCell
}

// NewProgressTable returns a table for the given worker count with every
// current-task slot initialized to stf.NoTask and the running flag set.
func NewProgressTable(workers int) *ProgressTable {
	t := &ProgressTable{workers: make([]ProgressCell, workers)}
	for w := range t.workers {
		t.workers[w].current.Store(int64(stf.NoTask))
	}
	t.running.Store(true)
	return t
}

// Worker returns worker w's cell.
func (t *ProgressTable) Worker(w int) *ProgressCell { return &t.workers[w] }

// Finish clears the running flag (the counters stay readable).
func (t *ProgressTable) Finish() { t.running.Store(false) }

// WaitHist returns the wait-duration histogram summed across workers, read
// in place: what Snapshot().WaitHist() returns, without assembling the
// snapshot.
func (t *ProgressTable) WaitHist() [NumWaitBuckets]int64 {
	var h [NumWaitBuckets]int64
	for w := range t.workers {
		for b := range h {
			h[b] += t.workers[w].waitHist[b].Load()
		}
	}
	return h
}

// Snapshot assembles a Progress view of the table. Safe to call from any
// goroutine while workers are publishing.
func (t *ProgressTable) Snapshot() Progress {
	p := Progress{
		Running: t.running.Load(),
		Workers: make([]WorkerProgress, len(t.workers)),
	}
	for w := range t.workers {
		cell := &t.workers[w]
		out := &p.Workers[w]
		out.Executed = cell.executed.Load()
		out.Declared = cell.declared.Load()
		out.Claimed = cell.claimed.Load()
		out.Retried = cell.retried.Load()
		out.Skipped = cell.skipped.Load()
		out.Stolen = cell.stolen.Load()
		out.StealFailed = cell.stealFailed.Load()
		out.Current = stf.TaskID(cell.current.Load())
		for b := range cell.waitHist {
			out.WaitHist[b] = cell.waitHist[b].Load()
		}
	}
	return p
}
