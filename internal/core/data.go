// Package core implements the paper's contribution: the RIO (Run-In-Order)
// decentralized in-order execution model for STF programs (paper §3).
//
// Every worker replays the whole task flow (decentralized task management,
// §3.3). A deterministic mapping function assigns each task to exactly one
// worker (§3.2). A worker executes the tasks mapped to it, in task-flow
// order, and merely *declares* — a couple of writes to private memory — the
// tasks mapped to others. Data accesses are synchronized by the
// decentralized protocol of §3.4 (Algorithms 1 and 2): per-data shared
// state records what has *executed*, per-worker local state records what
// has been *encountered*, and a worker acquiring a data object waits until
// the two agree.
//
// Beyond the paper's strict R/W protocol, the package implements the §3.4
// extension it points to (data versioning à la SuperGlue): commutative
// Reduction accesses. A run of consecutive reductions is ordered like a
// single write with respect to everything around it, but its members may
// execute in any order, serialized by a per-data mutex.
package core

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// cacheLine is the coherence granularity the state layout is padded to.
// 64 bytes on every platform this runs on (x86-64, arm64).
const cacheLine = 64

// sharedCell is the shared half of a data object's synchronization state
// (Algorithm 2) plus the event gate parked waiters block on. It is wrapped
// by sharedState, which pads it to an exact cache-line multiple — keep the
// fields here and the padding arithmetic there.
//
// Invariant: at most one task at a time is between get_write and
// terminate_write on a given data object (guaranteed by the protocol
// itself), so lastExecutedWrite is only ever advanced by a single writer;
// readers and reducers increment their counters concurrently.
type sharedCell struct {
	// lastExecutedWrite is id+1 for the TaskID id of the last write
	// performed on the data, 0 before any write: the +1 makes idle the zero
	// value, so a cleared cell is a fresh one (see localState for the
	// matching encoding; stealReady decodes it).
	lastExecutedWrite atomic.Int64
	// nbReadsSinceWrite counts the reads performed since the last write.
	nbReadsSinceWrite atomic.Int64
	// nbRedsSinceWrite counts the reductions performed since the last
	// write.
	nbRedsSinceWrite atomic.Int64
	// waiters counts the workers currently registered with the park gate.
	// Terminates check it with one atomic load and skip the gate entirely
	// when it is zero, so the uncontended release path pays nothing for
	// the parking machinery.
	waiters atomic.Int32
	// redMu serializes reduction task bodies on this data (members of a
	// reduction run commute but must not overlap).
	redMu sync.Mutex
	// parkMu guards parkCh. It is only ever taken by already-slow waiters
	// and by terminates that observed waiters != 0.
	parkMu sync.Mutex
	// parkCh is the park gate: a channel closed (and reset to nil) by the
	// next wake, allocated lazily by the first parking waiter of an epoch.
	// nil means nobody is parked and nobody is about to park on it.
	parkCh chan struct{}
}

// sharedState pads sharedCell to an exact multiple of the cache line, so a
// []sharedState never lets two data objects' protocol words share a line
// (false sharing between unrelated readers/writers). The pad is computed,
// not hand-counted: it stays correct when the cell grows.
type sharedState struct {
	sharedCell
	_ [(cacheLine - unsafe.Sizeof(sharedCell{})%cacheLine) % cacheLine]byte
}

// parkChan returns the gate channel to park on, allocating it if this
// waiter opens the epoch. Callers must already be registered (waiters > 0)
// and must re-check their readiness condition *after* this call, before
// blocking — that ordering is what makes the gate lost-wakeup-free (see
// the proof sketch on wake).
func (s *sharedCell) parkChan() chan struct{} {
	s.parkMu.Lock()
	ch := s.parkCh
	if ch == nil {
		ch = make(chan struct{})
		s.parkCh = ch
	}
	s.parkMu.Unlock()
	return ch
}

// wake publishes one wake to every waiter currently parked (or about to
// park) on the gate. Terminates call it after their atomic counter stores.
//
// No lost wakeups: all atomics are sequentially consistent (Go memory
// model), so for any releaser/waiter pair either (a) the releaser's
// waiters.Load observes the waiter's registration — then the releaser takes
// parkMu and closes the channel the waiter fetched (or the waiter fetches
// the post-close nil→fresh channel, in which case its mandatory re-check
// after the fetch observes the already-published counters); or (b) the
// load observes no registration — then the waiter registered later, and its
// re-check (which follows its registration) observes the counters published
// before the load. Either way the waiter cannot block on a state that has
// already been released. Spurious wakes are benign: parked waiters loop on
// their condition.
func (s *sharedCell) wake() {
	if s.waiters.Load() == 0 {
		return
	}
	s.parkMu.Lock()
	if ch := s.parkCh; ch != nil {
		close(ch)
		s.parkCh = nil
	}
	s.parkMu.Unlock()
}

// recycle returns the shared protocol counters to idle — zero — for the next
// stream window. Callers must guarantee quiescence: no worker is between a
// get and a terminate on this data, and no waiter is parked on the gate (the
// streaming session calls it on the producer once it has joined the window,
// when none of the window's workers exists any more). The reduction mutex
// and park gate need no reset — an unlocked mutex and a nil gate channel
// *are* their idle states. A whole run's cells are not recycled one by one:
// Engine.borrow clears them in one go.
func (s *sharedCell) recycle() {
	s.lastExecutedWrite.Store(0)
	s.nbReadsSinceWrite.Store(0)
	s.nbRedsSinceWrite.Store(0)
}

// localState is the private half, one per (worker, data) pair: what this
// worker has encountered in the task flow so far, whether or not the
// corresponding tasks have executed yet. Only its owning worker touches it,
// so plain (non-atomic) fields suffice — this is what makes declaring a
// foreign task nearly free (one or two private writes per dependency,
// §3.3).
type localState struct {
	// lastRegisteredWrite is id+1 for the TaskID id of the last write
	// encountered, 0 before any: the encoding of sharedCell.lastExecutedWrite,
	// so the get_* conditions compare the two as they are.
	lastRegisteredWrite int64
	// nbReadsSinceWrite counts the reads encountered since that write.
	nbReadsSinceWrite int64
	// nbRedsSinceWrite counts the reductions encountered since that
	// write.
	nbRedsSinceWrite int64
	// nbRedsBeforeRun is the reduction count at the start of the current
	// reduction run (any non-reduction access closes the run). A
	// reduction waits only for reductions of *earlier* runs, never for
	// members of its own run — that is what lets them commute.
	nbRedsBeforeRun int64
}

// localArena backs every worker's localState slice with one flat
// allocation: worker w's states live at [w*stride, w*stride+numData), a
// contiguous run indexed directly by data ID (no pointer chasing on the
// declare path). The stride leaves a full guard cache line between
// neighboring workers' segments, so no two workers' local states can share
// a line regardless of how the allocator aligned the backing array —
// declares are private-memory writes in the coherence sense, not just the
// ownership sense. An arena outlives its run in the engine's pool: reset
// lays it out again for any numData up to the one it was allocated for.
type localArena struct {
	backing []localState
	workers int
	stride  int
	numData int
}

// localStatesPerLine is how many localState entries fit one cache line;
// the arena's guard gap is expressed in entries. A compile-time-constant
// relationship the white-box layout test pins.
const localStatesPerLine = cacheLine / int(unsafe.Sizeof(localState{}))

// arenaStride is the per-worker stride for numData data objects: numData
// rounded up to a whole line, plus a full guard line.
func arenaStride(numData int) int {
	stride := numData
	if r := stride % localStatesPerLine; r != 0 {
		stride += localStatesPerLine - r
	}
	return stride + localStatesPerLine
}

// newLocalArena returns an idle arena (all zero) for numData data objects.
func newLocalArena(workers, numData int) localArena {
	stride := arenaStride(numData)
	return localArena{
		backing: make([]localState, workers*stride),
		workers: workers,
		stride:  stride,
		numData: numData,
	}
}

// reset lays a used arena out for numData data objects — at most the
// numData it was allocated for — and returns the span that layout covers to
// idle with one clear.
func (a *localArena) reset(numData int) {
	a.stride = arenaStride(numData)
	a.numData = numData
	clear(a.backing[:a.workers*a.stride])
}

// worker returns worker w's localState segment.
func (a *localArena) worker(w int) []localState {
	return a.backing[w*a.stride : w*a.stride+a.numData : w*a.stride+a.numData]
}

// recycle returns a worker's private view of one data object to idle for
// the next stream window. The session's producer calls it for every worker
// and every datum the window touches before launching the window's workers,
// whose start the go statement orders after it.
func (l *localState) recycle() {
	*l = localState{}
}

// declareRead implements declare_read: the worker encountered a read it
// will not execute. A read also closes any open reduction run.
func (l *localState) declareRead() {
	l.nbReadsSinceWrite++
	l.nbRedsBeforeRun = l.nbRedsSinceWrite
}

// declareWrite implements declare_write(task_id), registering the write as
// id+1 (see lastRegisteredWrite). A write resets all since-write counters.
func (l *localState) declareWrite(id int64) {
	l.nbReadsSinceWrite = 0
	l.lastRegisteredWrite = id + 1
	l.nbRedsSinceWrite = 0
	l.nbRedsBeforeRun = 0
}

// declareRed registers an encountered reduction; it extends (or opens) the
// current run.
func (l *localState) declareRed() { l.nbRedsSinceWrite++ }

// readReady reports whether a read registered against l may proceed: every
// write *and reduction* encountered before it has executed (get_read's
// condition).
func (l *localState) readReady(s *sharedState) bool {
	return s.lastExecutedWrite.Load() == l.lastRegisteredWrite &&
		s.nbRedsSinceWrite.Load() == l.nbRedsSinceWrite
}

// writeReady reports whether a write registered against l may proceed:
// every previously encountered write, read and reduction has executed
// (get_write's condition). The write-ID check must pass before the counts
// are meaningful; callers wait for the conditions in that order.
func (l *localState) writeReady(s *sharedState) bool {
	return s.lastExecutedWrite.Load() == l.lastRegisteredWrite &&
		s.nbReadsSinceWrite.Load() == l.nbReadsSinceWrite &&
		s.nbRedsSinceWrite.Load() == l.nbRedsSinceWrite
}

// redReady reports whether a reduction may proceed: every earlier write and
// read has executed, and every reduction of *earlier runs* has executed
// (>= because members of the current run may have completed too).
func (l *localState) redReady(s *sharedState) bool {
	return s.lastExecutedWrite.Load() == l.lastRegisteredWrite &&
		s.nbReadsSinceWrite.Load() == l.nbReadsSinceWrite &&
		s.nbRedsSinceWrite.Load() >= l.nbRedsBeforeRun
}

// terminateRead implements terminate_read: publish one performed read, then
// register it locally. The wake covers waiters gated on the read count
// (writers); when nobody is parked it is a single atomic load.
func (l *localState) terminateRead(s *sharedState) {
	s.nbReadsSinceWrite.Add(1)
	s.wake()
	l.declareRead()
}

// terminateWrite implements terminate_write(task_id), publishing id+1. The
// counters are reset *before* the write ID is published so that a waiter
// observing the new write ID can never pair it with the previous epoch's
// counts (single-writer-at-a-time is guaranteed by the protocol itself). The
// wake follows every store, so a woken waiter's re-check sees the whole
// publication.
func (l *localState) terminateWrite(s *sharedState, id int64) {
	s.nbReadsSinceWrite.Store(0)
	s.nbRedsSinceWrite.Store(0)
	s.lastExecutedWrite.Store(id + 1)
	s.wake()
	l.declareWrite(id)
}

// terminateRed publishes one performed reduction.
func (l *localState) terminateRed(s *sharedState) {
	s.nbRedsSinceWrite.Add(1)
	s.wake()
	l.declareRed()
}
