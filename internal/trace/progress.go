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
	// with the semantics of the WorkerStats fields of the same names (in
	// the centralized engine the master's Declared counts the tasks it has
	// submitted so far: its mid-run unrolling position).
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
	// done) or sleeping in a retry backoff.
	Current stf.TaskID `json:"current"`
	// WaitHist is the histogram of completed dependency-wait durations
	// (bucket bounds in WaitBucketBounds). Populated only when accounting
	// is enabled: under NoAccounting waits are not timed.
	WaitHist [NumWaitBuckets]int64 `json:"wait_hist"`
}

// Progress is a mid-run snapshot of a run's always-on counters, readable
// from any goroutine while the run is in flight (engines publish the
// counters with atomic stores on per-worker cache lines). After a run
// finishes the last run's final counters stay readable; they are the
// counters of its Stats, read from the same table.
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

// ProgressCell is one worker's run record inside a ProgressTable: its task
// counters, the task it is executing, its wait histogram and — read only by
// the stall watchdog — the slow wait it is blocked in, all published as it
// goes, plus its task, idle and wall times, stored once when it exits. Each
// cell is cache-line padded and written by exactly one worker, so a counter
// counts in place with a load and a store — no read-modify-write on a shared
// line: the always-on cost is one store per declare and three per
// execution. The wait histogram is the one field that is not always on: a
// wait has to be timed to be bucketed, so only accounted runs call AddWait
// and a NoAccounting run leaves it empty.
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
	// The slow wait the worker is blocked in (stf.NoTask when none) and its
	// access, packed data<<8|mode; published on watchdog-armed runs only.
	waitTask   atomic.Int64
	waitAccess atomic.Int64
	exited     atomic.Bool
	// Written once by Exit, read by Stats once the run is joined.
	task, idle, wall time.Duration
}

// CountExecuted counts one executed task.
func (c *ProgressCell) CountExecuted() { c.executed.Store(c.executed.Load() + 1) }

// CountDeclared counts n declare-only task visits.
func (c *ProgressCell) CountDeclared(n int64) { c.declared.Store(c.declared.Load() + n) }

// CountClaimed counts one dynamically claimed execution.
func (c *ProgressCell) CountClaimed() { c.claimed.Store(c.claimed.Load() + 1) }

// CountRetried counts one rolled-back-and-retried attempt.
func (c *ProgressCell) CountRetried() { c.retried.Store(c.retried.Load() + 1) }

// CountSkipped counts n resume-skipped tasks.
func (c *ProgressCell) CountSkipped(n int64) { c.skipped.Store(c.skipped.Load() + n) }

// CountStolen counts one stolen execution.
func (c *ProgressCell) CountStolen() { c.stolen.Store(c.stolen.Load() + 1) }

// CountStealFailed counts one lost steal race.
func (c *ProgressCell) CountStealFailed() { c.stealFailed.Store(c.stealFailed.Load() + 1) }

// SetCurrent publishes the task the worker is executing (stf.NoTask to
// clear).
func (c *ProgressCell) SetCurrent(id stf.TaskID) { c.current.Store(int64(id)) }

// SetWaiting publishes the slow wait the worker enters: task id blocked on
// access a (stf.NoTask to clear).
func (c *ProgressCell) SetWaiting(id stf.TaskID, a stf.Access) {
	c.waitAccess.Store(int64(a.Data)<<8 | int64(a.Mode))
	c.waitTask.Store(int64(id))
}

// AddWait buckets one completed dependency wait of duration d.
func (c *ProgressCell) AddWait(d time.Duration) {
	c.waitHist[WaitBucket(d)].Add(1)
}

// Exit stores the worker's task, idle and wall times and marks it exited:
// the worker's last write to its cell (in a stream session, a window's).
func (c *ProgressCell) Exit(task, idle, wall time.Duration) {
	c.task, c.idle, c.wall = task, idle, wall
	c.exited.Store(true)
}

// WorkerState is what a stall monitor reads of a worker's cell. It is
// comparable: a monitor dates a worker's state by the first reading that
// differs from the one before.
type WorkerState struct {
	Executed, Retried int64
	// Current is the task being executed (stf.NoTask between tasks and
	// during a retry backoff); Waiting and WaitOn the slow wait the worker
	// is blocked in (Waiting is stf.NoTask when none).
	Current, Waiting stf.TaskID
	WaitOn           stf.Access
	Exited           bool
}

// State reads the cell for a stall monitor.
func (c *ProgressCell) State() WorkerState {
	acc := c.waitAccess.Load()
	return WorkerState{
		Executed: c.executed.Load(),
		Retried:  c.retried.Load(),
		Current:  stf.TaskID(c.current.Load()),
		Waiting:  stf.TaskID(c.waitTask.Load()),
		WaitOn:   stf.Access{Data: stf.DataID(acc >> 8), Mode: stf.AccessMode(acc)},
		Exited:   c.exited.Load(),
	}
}

// ProgressTable is the run record of one run, shared by the engines: one
// padded cell per worker plus a running flag. Engines publish a fresh table
// at run start through an atomic pointer, so snapshots never race with run
// setup or teardown.
type ProgressTable struct {
	running atomic.Bool
	workers []ProgressCell
}

// NewProgressTable returns a table for the given worker count with every
// current-task and waiting-task slot initialized to stf.NoTask and the
// running flag set.
func NewProgressTable(workers int) *ProgressTable {
	t := &ProgressTable{workers: make([]ProgressCell, workers)}
	for w := range t.workers {
		t.workers[w].current.Store(int64(stf.NoTask))
		t.workers[w].waitTask.Store(int64(stf.NoTask))
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

// Stats is the §2.3 decomposition of a run whose workers have all exited
// (read it only then: the times are plain words), with wall the run's end
// to end time: every cell's counters and stored times, and each worker's
// runtime as the residual Wall − Task − Idle when the run was accounted.
func (t *ProgressTable) Stats(wall time.Duration, accounted bool) Stats {
	s := Stats{Workers: make([]WorkerStats, len(t.workers)), Wall: wall, Accounted: accounted}
	for w := range t.workers {
		cell := &t.workers[w]
		ws := WorkerStats{
			Task:        cell.task,
			Idle:        cell.idle,
			Wall:        cell.wall,
			Executed:    cell.executed.Load(),
			Declared:    cell.declared.Load(),
			Claimed:     cell.claimed.Load(),
			Retried:     cell.retried.Load(),
			Skipped:     cell.skipped.Load(),
			Stolen:      cell.stolen.Load(),
			StealFailed: cell.stealFailed.Load(),
		}
		if r := ws.Wall - ws.Task - ws.Idle; accounted && r > 0 {
			ws.Runtime = r
		}
		s.Workers[w] = ws
	}
	return s
}
