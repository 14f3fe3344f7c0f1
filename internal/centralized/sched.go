package centralized

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rio/internal/stf"
	"rio/internal/trace"
)

// scheduler moves ready tasks from the master to the executing workers.
// push never blocks; pop blocks until a task is available or the scheduler
// is closed (then it returns nil). pop additionally returns the time the
// worker spent blocked, which the engine accounts as idle time (zero
// without accounting: waitTuning.stamp).
type scheduler interface {
	push(t *task)
	pop(w int) (*task, time.Duration)
	close()
}

// waitTuning is the centralized counterpart of the in-order engine's
// dependency-wait escalation, applied to the executors' ready-queue pops:
// how long a pop busy-polls the ready state before parking on the
// scheduler's condition variable. The policies map as follows — WaitSpin
// never parks (Gosched-poll until a task or close), WaitAdaptive spins for
// the budget then parks (no feedback loop here: queue pops have no per-data
// histogram to feed from), WaitPark parks immediately (parking *is* the
// legacy centralized behavior).
type waitTuning struct {
	policy stf.WaitPolicy
	spin   int
	noAcct bool // the engine's NoAccounting: pops time their idle with stamp
}

// stamp is the clock the centralized engine times with: trace.Stamp, or
// zero without accounting, so that an unaccounted timed section reads no
// clock and measures nothing.
func (wt waitTuning) stamp() time.Duration {
	if wt.noAcct {
		return 0
	}
	return trace.Stamp()
}

// budget returns the number of spin-phase probes before parking, or -1 for
// spin-forever.
func (wt waitTuning) budget() int {
	switch wt.policy {
	case stf.WaitSpin:
		return -1
	case stf.WaitAdaptive:
		return wt.spin
	}
	return 0 // WaitPark: park immediately
}

// spinPop busy-polls readyOrClosed (with Gosched between probes) for the
// tuning's budget — or until it holds, under WaitSpin. It reports whether
// the probe held during the spin phase and the time spent spinning.
// readyOrClosed must be a cheap, possibly stale probe that also turns true
// when the scheduler closes — that is what keeps a WaitSpin waiter live
// across shutdown; the caller re-checks authoritatively under its lock.
func (wt waitTuning) spinPop(readyOrClosed func() bool) (hit bool, idle time.Duration) {
	n := wt.budget()
	if n == 0 {
		return false, 0
	}
	t0 := wt.stamp()
	for i := 0; n < 0 || i < n; i++ {
		if readyOrClosed() {
			return true, wt.stamp() - t0
		}
		runtime.Gosched()
	}
	return false, wt.stamp() - t0
}

// SchedulerKind selects the dispatch strategy of the centralized engine.
type SchedulerKind int

const (
	// FIFO uses a single shared queue: ready tasks are executed in the
	// order they became ready, by whichever worker is free ("eager"
	// dispatch, StarPU's historical default).
	FIFO SchedulerKind = iota
	// WorkStealing gives each worker its own deque; tasks are pushed to
	// the hinted worker (or round-robin) and idle workers steal from the
	// back of other workers' deques ("lws"-style dispatch).
	WorkStealing
	// Priority dispatches ready tasks deepest-dependency-level first — a
	// cheap online critical-path heuristic ("prio"-style dispatch).
	Priority
)

// String returns the scheduler's short name.
func (k SchedulerKind) String() string {
	switch k {
	case FIFO:
		return "fifo"
	case WorkStealing:
		return "ws"
	case Priority:
		return "prio"
	}
	return "unknown"
}

// fifoQueue is the single-queue scheduler. avail and done shadow the
// mutex-guarded state with atomics so that spin-phase probes (see
// waitTuning) need not touch the lock pushers hold.
type fifoQueue struct {
	wt       waitTuning
	avail    atomic.Int64
	done     atomic.Bool
	mu       sync.Mutex
	nonEmpty *sync.Cond
	items    []*task // used as a ring-free FIFO: append at tail, pop at head
	head     int
	closed   bool
}

func newFIFO(wt waitTuning) *fifoQueue {
	q := &fifoQueue{wt: wt}
	q.nonEmpty = sync.NewCond(&q.mu)
	return q
}

func (q *fifoQueue) push(t *task) {
	q.mu.Lock()
	q.items = append(q.items, t)
	q.avail.Add(1)
	q.mu.Unlock()
	q.nonEmpty.Signal()
}

// take dequeues one task if available. done reports the queue closed and
// drained; (nil, false) means empty-but-open (caller spins or parks).
func (q *fifoQueue) take() (t *task, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return nil, q.closed
	}
	t = q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.avail.Add(-1)
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return t, false
}

func (q *fifoQueue) pop(int) (*task, time.Duration) {
	var idle time.Duration
	for {
		if t, done := q.take(); t != nil || done {
			return t, idle
		}
		hit, spun := q.wt.spinPop(func() bool { return q.avail.Load() > 0 || q.done.Load() })
		idle += spun
		if hit {
			continue // re-check authoritatively under the lock
		}
		q.mu.Lock()
		for q.head == len(q.items) && !q.closed {
			t0 := q.wt.stamp()
			q.nonEmpty.Wait()
			idle += q.wt.stamp() - t0
		}
		q.mu.Unlock()
	}
}

func (q *fifoQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.done.Store(true)
	q.mu.Unlock()
	q.nonEmpty.Broadcast()
}

// stealScheduler implements per-worker deques with work stealing. A worker
// pops from the front of its own deque (preserving submission order for
// hinted tasks) and steals from the back of a victim's deque. Parking uses
// a shared condition variable with a version counter, read before the scan
// and re-checked under the lock, so that a push landing anywhere between
// the start of the failed scan and the wait cannot be lost.
type stealScheduler struct {
	wt     waitTuning
	deques []workerDeque
	done   atomic.Bool // shadows closed for lock-free spin probes

	mu      sync.Mutex
	wake    *sync.Cond
	version atomic.Uint64 // advanced under mu, read lock-free before a scan
	closed  bool

	rr atomic.Uint64 // round-robin cursor for unhinted tasks
}

// cacheLine is the coherence granularity the deques are padded to.
const cacheLine = 64

type workerDeque struct {
	dequeCell
	// Keep deques on separate cache lines; the pad is computed so it
	// tracks the cell's layout.
	_ [(cacheLine - unsafe.Sizeof(dequeCell{})%cacheLine) % cacheLine]byte
}

type dequeCell struct {
	mu    sync.Mutex
	items []*task
	head  int
}

func newStealScheduler(workers int, wt waitTuning) *stealScheduler {
	s := &stealScheduler{wt: wt, deques: make([]workerDeque, workers)}
	s.wake = sync.NewCond(&s.mu)
	return s
}

func (s *stealScheduler) push(t *task) {
	w := t.hint
	if w < 0 || w >= len(s.deques) {
		// Both the master (at submission) and executors (releasing
		// successors) push, so the cursor must be atomic.
		w = int((s.rr.Add(1) - 1) % uint64(len(s.deques)))
	}
	d := &s.deques[w]
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()

	s.mu.Lock()
	s.version.Add(1)
	s.mu.Unlock()
	s.wake.Broadcast()
}

// popOwn removes the oldest task of w's own deque.
func (d *workerDeque) popOwn() *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.items) {
		return nil
	}
	t := d.items[d.head]
	d.items[d.head] = nil
	d.head++
	if d.head == len(d.items) {
		d.items = d.items[:0]
		d.head = 0
	}
	return t
}

// steal removes the newest task of a victim deque.
func (d *workerDeque) steal() *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if d.head == n {
		return nil
	}
	t := d.items[n-1]
	d.items[n-1] = nil
	d.items = d.items[:n-1]
	if d.head == len(d.items) {
		d.items = d.items[:0]
		d.head = 0
	}
	return t
}

// scan tries w's own deque, then every victim, without blocking.
func (s *stealScheduler) scan(w int) *task {
	if t := s.deques[w].popOwn(); t != nil {
		return t
	}
	for i := 1; i < len(s.deques); i++ {
		if t := s.deques[(w+i)%len(s.deques)].steal(); t != nil {
			return t
		}
	}
	return nil
}

func (s *stealScheduler) pop(w int) (*task, time.Duration) {
	var idle time.Duration
	for {
		// A push after this read changes the version, whether or not the
		// scans below see its task; one before it is in a deque they scan.
		v := s.version.Load()
		if t := s.scan(w); t != nil {
			return t, idle
		}
		// Spin phase per waitTuning: rescan (the scan itself is the ready
		// probe here — deque locks are sharded, so probing them does not
		// serialize the pushers) before parking.
		if n := s.wt.budget(); n != 0 {
			t0 := s.wt.stamp()
			for i := 0; n < 0 || i < n; i++ {
				runtime.Gosched()
				if t := s.scan(w); t != nil {
					return t, idle + s.wt.stamp() - t0
				}
				if s.done.Load() {
					break
				}
			}
			idle += s.wt.stamp() - t0
		}
		// Nothing found: park until a push since v or close changes the world.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, idle
		}
		t0 := s.wt.stamp()
		for s.version.Load() == v && !s.closed {
			s.wake.Wait()
		}
		idle += s.wt.stamp() - t0
		s.mu.Unlock()
	}
}

func (s *stealScheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.done.Store(true)
	s.mu.Unlock()
	s.wake.Broadcast()
}
