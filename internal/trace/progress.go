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

// WaitBucketBounds are the inclusive upper bounds of the first
// NumWaitBuckets-1 histogram buckets, as in a Prometheus le bucket; the
// last bucket counts waits longer than the largest bound. The exponential spacing spans the engine's wait escalation: the
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

// WaitBucket returns the histogram bucket index for a wait of duration d:
// the first bucket whose bound d does not exceed.
func WaitBucket(d time.Duration) int {
	for i, b := range WaitBucketBounds {
		if d <= b {
			return i
		}
	}
	return NumWaitBuckets - 1
}

// Counters are a worker's seven task counters: the always-on part of its
// run record, counted in place in its ProgressCell.
type Counters struct {
	// Executed counts tasks this worker ran.
	Executed int64 `json:"executed"`
	// Declared counts tasks this worker skipped over (in-order engine:
	// tasks mapped to other workers, for which only the local declare_*
	// bookkeeping ran; centralized engine: the tasks the master submitted,
	// mid-run its unrolling position).
	Declared int64 `json:"declared"`
	// Claimed counts executed tasks that had no static owner and were won
	// dynamically (partial mappings); Claimed <= Executed.
	Claimed int64 `json:"claimed"`
	// Retried counts failed task attempts that were rolled back and
	// re-executed under a retry policy; a task succeeding on its third
	// attempt contributes 2.
	Retried int64 `json:"retried"`
	// Skipped counts tasks a Resume checkpoint marked completed, charged
	// to the worker that would have executed them.
	Skipped int64 `json:"skipped"`
	// Stolen counts executed tasks this worker took from another worker's
	// static assignment under a steal policy; Stolen <= Executed.
	Stolen int64 `json:"stolen"`
	// StealFailed counts steal attempts that proved a task ready but lost
	// the claim race at the last moment (to the owner or another thief).
	StealFailed int64 `json:"steal_failed"`
}

// Worker is one worker's run record, read from its ProgressCell: live in a
// Progress snapshot, final in a run's Stats, where the times stored when
// the worker exited are filled in too.
type Worker struct {
	Counters
	// Current is the ID of the task this worker is executing, or
	// stf.NoTask (-1) when it is between tasks (replaying, waiting or done)
	// or sleeping in a retry backoff.
	Current stf.TaskID `json:"current"`
	// WaitHist is the histogram of completed dependency-wait durations
	// (bucket bounds in WaitBucketBounds). Populated only when accounting
	// is enabled: under NoAccounting waits are not timed.
	WaitHist [NumWaitBuckets]int64 `json:"wait_hist"`
	// Task is the cumulative time spent executing task bodies, Idle the
	// time blocked on dependency waits or empty queues, Runtime the time
	// spent in runtime management (unrolling, dependency bookkeeping,
	// scheduling, dispatch) computed as Wall − Task − Idle, and Wall the
	// time this worker was active. Stats only: a Progress snapshot leaves
	// them zero, and without accounting only Wall is set.
	Task    time.Duration `json:"-"`
	Idle    time.Duration `json:"-"`
	Runtime time.Duration `json:"-"`
	Wall    time.Duration `json:"-"`
}

// Workers is a run's record, one Worker per engine thread; its methods sum
// a counter across workers. Stats and Progress embed it.
type Workers []Worker

func (ws Workers) sum(counter func(*Counters) int64) int64 {
	var n int64
	for i := range ws {
		n += counter(&ws[i].Counters)
	}
	return n
}

// Executed returns the total number of tasks executed.
func (ws Workers) Executed() int64 { return ws.sum(func(c *Counters) int64 { return c.Executed }) }

// Declared returns the total number of declare-only task visits.
func (ws Workers) Declared() int64 { return ws.sum(func(c *Counters) int64 { return c.Declared }) }

// Claimed returns the total number of dynamically claimed executions.
func (ws Workers) Claimed() int64 { return ws.sum(func(c *Counters) int64 { return c.Claimed }) }

// Retried returns the total number of retried task attempts.
func (ws Workers) Retried() int64 { return ws.sum(func(c *Counters) int64 { return c.Retried }) }

// Skipped returns the total number of resume-skipped tasks.
func (ws Workers) Skipped() int64 { return ws.sum(func(c *Counters) int64 { return c.Skipped }) }

// Stolen returns the total number of stolen task executions.
func (ws Workers) Stolen() int64 { return ws.sum(func(c *Counters) int64 { return c.Stolen }) }

// StealFailed returns the total number of lost steal races.
func (ws Workers) StealFailed() int64 {
	return ws.sum(func(c *Counters) int64 { return c.StealFailed })
}

// WaitHist returns the wait-duration histogram summed across workers.
func (ws Workers) WaitHist() [NumWaitBuckets]int64 {
	var h [NumWaitBuckets]int64
	for i := range ws {
		for b, n := range ws[i].WaitHist {
			h[b] += n
		}
	}
	return h
}

// Progress is a mid-run snapshot of a run's record, readable from any
// goroutine while the run is in flight (engines publish the counters with
// atomic stores on per-worker cache lines). After a run finishes the last
// run's final counters stay readable; they are the counters of its Stats,
// read from the same table.
type Progress struct {
	// Running reports whether a run is currently in flight.
	Running bool `json:"running"`
	// Workers holds one entry per engine thread, aligned with
	// Stats.Workers (for the centralized engine index 0 is the master).
	Workers `json:"workers"`
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

// read is the live reading of the cell, every published word but the
// watchdog's: what a Progress snapshot reports, and Stats before the times.
func (c *ProgressCell) read() Worker {
	w := Worker{
		Counters: Counters{
			Executed:    c.executed.Load(),
			Declared:    c.declared.Load(),
			Claimed:     c.claimed.Load(),
			Retried:     c.retried.Load(),
			Skipped:     c.skipped.Load(),
			Stolen:      c.stolen.Load(),
			StealFailed: c.stealFailed.Load(),
		},
		Current: stf.TaskID(c.current.Load()),
	}
	for b := range c.waitHist {
		w.WaitHist[b] = c.waitHist[b].Load()
	}
	return w
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
// at run start through an atomic pointer (LastRun), so snapshots never race
// with run setup or teardown.
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

// Workers returns the number of workers the table records: the run's width.
func (t *ProgressTable) Workers() int { return len(t.workers) }

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
	p := Progress{Running: t.running.Load(), Workers: make(Workers, len(t.workers))}
	for w := range t.workers {
		p.Workers[w] = t.workers[w].read()
	}
	return p
}

// stats is the §2.3 decomposition of a run whose workers have all exited
// (read it only then: the times are plain words), with wall the run's end
// to end time: every cell's reading and stored times, and each worker's
// runtime as the residual Wall − Task − Idle when the run was accounted.
func (t *ProgressTable) stats(wall time.Duration, accounted bool) Stats {
	s := Stats{Workers: make(Workers, len(t.workers)), Wall: wall, Accounted: accounted}
	for w := range t.workers {
		cell, ws := &t.workers[w], &s.Workers[w]
		*ws = cell.read()
		ws.Task, ws.Idle, ws.Wall = cell.task, cell.idle, cell.wall
		if r := ws.Wall - ws.Task - ws.Idle; accounted && r > 0 {
			ws.Runtime = r
		}
	}
	return s
}

// LastRun is the one Stats and Progress implementation behind every
// engine: the progress table of its current or most recent run, and the
// Stats of its most recent finished run. Engines embed it. Progress is safe
// from any goroutine; Begin, End, Abandon and Stats belong to the goroutine
// that runs the engine.
type LastRun struct {
	table atomic.Pointer[ProgressTable]
	// ended is the table of the most recent finished run until the first
	// Stats call reads it into stats: a run nobody asks about assembles no
	// Stats.
	ended *ProgressTable
	stats Stats
}

// Begin publishes a fresh table for a run of the given worker count and
// returns it.
func (l *LastRun) Begin(workers int) *ProgressTable {
	t := NewProgressTable(workers)
	l.table.Store(t)
	return t
}

// End ends the run Begin last published, once all of its workers have
// exited: its table becomes the one Stats reads, and its running flag
// clears.
func (l *LastRun) End(wall time.Duration, accounted bool) {
	t := l.table.Load()
	l.ended, l.stats = t, Stats{Wall: wall, Accounted: accounted}
	t.Finish()
}

// Abandon ends a run some of whose workers could not be joined: their
// cells may still be written, so its Stats keep only the wall time.
func (l *LastRun) Abandon(wall time.Duration) {
	t := l.table.Load()
	l.ended, l.stats = nil, Stats{Workers: make(Workers, len(t.workers)), Wall: wall}
	t.Finish()
}

// Table returns the table of the current or most recent run, nil before
// the first.
func (l *LastRun) Table() *ProgressTable { return l.table.Load() }

// Progress snapshots the current (or, between runs, the most recent) run's
// record. Safe to call from any goroutine at any time, including while a
// run is in flight; before the first run it returns a zero Progress.
func (l *LastRun) Progress() Progress {
	if t := l.table.Load(); t != nil {
		return t.Snapshot()
	}
	return Progress{}
}

// Stats returns the time decomposition of the last finished run.
func (l *LastRun) Stats() *Stats {
	if t := l.ended; t != nil {
		l.ended, l.stats = nil, t.stats(l.stats.Wall, l.stats.Accounted)
	}
	return &l.stats
}
