package centralized

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

// waitTuning is the centralized counterpart of the in-order engine's
// dependency-wait escalation, applied to the executors' ready-queue pops:
// how long a pop busy-polls the ready state before parking on the
// queue's condition variable. The policies map as follows — WaitSpin
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

// fifoQueue is the master's ready queue: ready tasks are executed in the
// order they became ready, by whichever executor is free ("eager"
// dispatch, StarPU's historical default). The master (at submission) and
// executors (releasing successors) push; executors pop. avail and done
// shadow the mutex-guarded state with atomics so that spin-phase probes
// (see waitTuning) need not touch the lock pushers hold.
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

// pop blocks until a task is available or the queue is closed and drained
// (then it returns nil). It also returns the time the executor spent
// blocked, which the engine accounts as idle time (zero without
// accounting: waitTuning.stamp).
func (q *fifoQueue) pop() (*task, time.Duration) {
	var idle time.Duration
	for {
		if t, done := q.take(); t != nil || done {
			return t, idle
		}
		hit, spun := q.spin()
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

// spin busy-polls the queue's atomic shadows (with Gosched between probes)
// for the tuning's budget — or until they show a task or the close, under
// WaitSpin. It reports whether they did during the spin phase and the time
// spent spinning. The probe is possibly stale, so the caller re-checks
// authoritatively under the lock; turning true on close is what keeps a
// WaitSpin waiter live across shutdown.
func (q *fifoQueue) spin() (hit bool, idle time.Duration) {
	n := q.wt.budget()
	if n == 0 {
		return false, 0
	}
	t0 := q.wt.stamp()
	for i := 0; n < 0 || i < n; i++ {
		if q.avail.Load() > 0 || q.done.Load() {
			return true, q.wt.stamp() - t0
		}
		runtime.Gosched()
	}
	return false, q.wt.stamp() - t0
}

func (q *fifoQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.done.Store(true)
	q.mu.Unlock()
	q.nonEmpty.Broadcast()
}
