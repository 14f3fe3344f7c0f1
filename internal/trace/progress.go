package trace

import (
	"runtime"
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

// Counters are a worker's five task counters: the always-on part of its
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
	// stf.NoTask (-1) when it is between tasks (replaying, waiting or
	// done).
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
// counters, the task it is executing and its wait histogram, all published
// as it goes, plus its task, idle and wall times, stored once when it exits. Each
// cell is cache-line padded and written by exactly one worker, so a counter
// counts in place with a load and a store — no read-modify-write on a shared
// line.
//
// The executed count and the current task are one word, published by one
// store, so a reader always gets a pair that held at one moment. Finish
// counts a completion without publishing it, and the worker's next Start
// (the next task's) or Publish (no task) publishes it: an engine that
// starts its next task straight away pays one store per executed task, one
// that publishes each completion on its own two. Until then a reader sees
// the finished task as current and not yet counted, so an engine publishes
// before anything that can block (DESIGN.md §9, "What a task's progress
// costs"). The sequential and centralized engines publish the same two
// facts the way they always have, in two words of their own, with a store
// per step (SetCurrent, CountExecuted): on the one word each step would
// also pay a store of the worker's copy, and the sequential engine's time
// is the benchmark's efficiency denominator.
//
// The wait histogram is the one field that is not always on: a wait has to
// be timed to be bucketed, so only accounted runs call AddWait and a
// NoAccounting run leaves it empty.
type ProgressCell struct {
	progressCounters
	// Pad to a cache-line multiple to keep neighboring workers off this
	// line; computed, not hand-counted, so it stays correct when the
	// counter block grows.
	_ [(cacheLine - unsafe.Sizeof(progressCounters{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granularity ProgressCell pads to.
const cacheLine = 64

// The layout of a cell's state word: the current task in the low 32 bits
// (lowMask: 0 for stf.NoTask, else 1 plus the ID, and lowMask itself when
// the ID does not fit, which far then holds in the slot the farSlot bit
// names), and the executed count in the 31 bits above (countShift),
// rebased before it reaches countMax.
const (
	lowMask    = 1<<32 - 1
	farSlot    = 1 << 32
	countShift = 33
	countMax   = 1<<31 - 1
)

// progressCounters is the payload of a ProgressCell.
type progressCounters struct {
	// state packs the executed count, counted from execBase, with the
	// current task (see lowMask). A closure run's task IDs pass 2^32: such
	// an ID goes to the far slot the next flip of farSlot names, which the
	// far store after next rewrites, so a reader that finds state unchanged
	// after reading the slot has the ID state was stored with.
	state atomic.Uint64
	far   [2]atomic.Int64
	// execBase is what the count in state counts from: a run or a session
	// can execute more than 2^31 tasks on one worker, so rebase folds the
	// count into execBase before it reaches countMax, publishing both while
	// seq is odd.
	seq      atomic.Uint64
	execBase atomic.Int64
	// The two-word record of the sequential and centralized engines: the
	// tasks executed and the task being executed (stf.NoTask when none).
	executed atomic.Int64
	current  atomic.Int64

	declared    atomic.Int64
	claimed     atomic.Int64
	stolen      atomic.Int64
	stealFailed atomic.Int64
	waitHist    [NumWaitBuckets]atomic.Int64

	// word is the worker's own copy of state, ahead of it by the
	// executions Finish counted since the last store.
	word uint64
	// Written once by Exit, read by Stats once the run is joined.
	task, idle, wall time.Duration
}

// Start publishes that the worker executes task id, together with every
// execution counted so far. Start, Finish and Publish are the per-task
// cost, so they stay small enough to inline: methods of the payload,
// promoted to ProgressCell, with the rare rebase out of line.
func (c *progressCounters) Start(id stf.TaskID) {
	low := uint64(id + 1)
	if low >= lowMask {
		c.word ^= farSlot
		c.far[c.word/farSlot&1].Store(int64(id))
		low = lowMask
	}
	w := c.word&^lowMask | low
	c.state.Store(w)
	c.word = w
}

// Finish counts one executed task without publishing it: the worker's next
// Start, Publish or Exit does.
func (c *progressCounters) Finish() {
	if c.word += 1 << countShift; c.word >= countMax<<countShift {
		c.rebase()
	}
}

// Publish publishes every execution counted so far, with no task current.
func (c *progressCounters) Publish() { c.Start(stf.NoTask) }

// rebase folds the count into execBase and publishes state without it,
// both while seq is odd: a reader retries rather than pair a count with a
// base it was not stored against. Kept out of line, so that Finish inlines.
//
//go:noinline
func (c *progressCounters) rebase() {
	seq := c.seq.Load()
	c.seq.Store(seq + 1)
	c.execBase.Store(c.execBase.Load() + int64(c.word>>countShift))
	c.word &= 1<<countShift - 1
	c.state.Store(c.word)
	c.seq.Store(seq + 2)
}

// CountExecuted counts one executed task in the two-word record.
func (c *ProgressCell) CountExecuted() { c.executed.Store(c.executed.Load() + 1) }

// load reads the executed count and the current task: one pair from state,
// plus the two-word record, which a cell's engine leaves at zero and
// stf.NoTask when it publishes through state.
func (c *ProgressCell) load() (executed int64, current stf.TaskID) {
	for ; ; runtime.Gosched() { // a retry: the worker was mid-store
		seq := c.seq.Load()
		eb, w := c.execBase.Load(), c.state.Load()
		current = stf.TaskID(w&lowMask) - 1
		if w&lowMask == lowMask {
			if current = stf.TaskID(c.far[w/farSlot&1].Load()); c.state.Load() != w {
				continue
			}
		}
		if seq&1 == 0 && c.seq.Load() == seq {
			executed = eb + int64(w>>countShift)
			break
		}
	}
	if current == stf.NoTask {
		current = stf.TaskID(c.current.Load())
	}
	return executed + c.executed.Load(), current
}

// CountDeclared counts n declare-only task visits.
func (c *ProgressCell) CountDeclared(n int64) { c.declared.Store(c.declared.Load() + n) }

// CountClaimed counts one dynamically claimed execution.
func (c *ProgressCell) CountClaimed() { c.claimed.Store(c.claimed.Load() + 1) }

// CountStolen counts one stolen execution.
func (c *ProgressCell) CountStolen() { c.stolen.Store(c.stolen.Load() + 1) }

// CountStealFailed counts one lost steal race.
func (c *ProgressCell) CountStealFailed() { c.stealFailed.Store(c.stealFailed.Load() + 1) }

// SetCurrent publishes the task the worker is executing (stf.NoTask to
// clear) in the two-word record.
func (c *ProgressCell) SetCurrent(id stf.TaskID) { c.current.Store(int64(id)) }

// AddWait buckets one completed dependency wait of duration d.
func (c *ProgressCell) AddWait(d time.Duration) {
	c.waitHist[WaitBucket(d)].Add(1)
}

// Exit publishes the executions Finish counted and stores the worker's
// task, idle and wall times: the worker's last write to its cell (in a
// stream session, a window's). The current task stays as it was: a body
// that panicked is still named.
func (c *ProgressCell) Exit(task, idle, wall time.Duration) {
	c.task, c.idle, c.wall = task, idle, wall
	c.state.Store(c.word)
}

// read is the live reading of the cell, every published word: what a
// Progress snapshot reports, and Stats before the times.
func (c *ProgressCell) read() Worker {
	executed, current := c.load()
	w := Worker{
		Counters: Counters{
			Executed:    executed,
			Declared:    c.declared.Load(),
			Claimed:     c.claimed.Load(),
			Stolen:      c.stolen.Load(),
			StealFailed: c.stealFailed.Load(),
		},
		Current: current,
	}
	for b := range c.waitHist {
		w.WaitHist[b] = c.waitHist[b].Load()
	}
	return w
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
// from any goroutine; Begin, End and Stats belong to the goroutine that
// runs the engine.
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
