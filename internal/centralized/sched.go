package centralized

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rio/internal/trace"
)

// popSpin is the number of ready-queue probes an executor's pop makes
// before parking on the queue's condition variable: the centralized
// counterpart of the in-order engine's dependency-wait spin seed, without
// its feedback loop (queue pops have no per-data histogram to feed from).
const popSpin = 128

// clock is the clock the centralized engine times with: trace.Stamp, or
// zero without accounting (noAcct, the engine's NoAccounting), so that an
// unaccounted timed section reads no clock and measures nothing.
type clock struct{ noAcct bool }

func (c clock) stamp() time.Duration {
	if c.noAcct {
		return 0
	}
	return trace.Stamp()
}

// fifoQueue is the master's ready queue: ready tasks are executed in the
// order they became ready, by whichever executor is free ("eager"
// dispatch, StarPU's historical default). The master (at submission) and
// executors (releasing successors) push; executors pop. avail and done
// shadow the mutex-guarded state with atomics so that spin-phase probes
// (see spin) need not touch the lock pushers hold.
type fifoQueue struct {
	clk      clock
	avail    atomic.Int64
	done     atomic.Bool
	mu       sync.Mutex
	nonEmpty *sync.Cond
	items    []*task // used as a ring-free FIFO: append at tail, pop at head
	head     int
	closed   bool
}

func newFIFO(clk clock) *fifoQueue {
	q := &fifoQueue{clk: clk}
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
// accounting: clock.stamp).
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
			t0 := q.clk.stamp()
			q.nonEmpty.Wait()
			idle += q.clk.stamp() - t0
		}
		q.mu.Unlock()
	}
}

// spin polls the queue's atomic shadows (with Gosched between probes) for
// popSpin probes, or until they show a task or the close. It reports
// whether they did and the time spent spinning. The probe is possibly
// stale, so the caller re-checks authoritatively under the lock.
func (q *fifoQueue) spin() (hit bool, idle time.Duration) {
	t0 := q.clk.stamp()
	for i := 0; i < popSpin; i++ {
		if q.avail.Load() > 0 || q.done.Load() {
			return true, q.clk.stamp() - t0
		}
		runtime.Gosched()
	}
	return false, q.clk.stamp() - t0
}

func (q *fifoQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.done.Store(true)
	q.mu.Unlock()
	q.nonEmpty.Broadcast()
}
