package centralized

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// prioScheduler dispatches ready tasks deepest-dependency-level first (FIFO
// among equals): a cheap online approximation of critical-path scheduling —
// the kind of "good (hence expensive) heuristics" the paper attributes the
// centralized model's scheduling quality (and cost) to (§3.1). The master
// assigns each task its level (1 + max over predecessors) during
// dependency derivation.
type prioScheduler struct {
	wt       waitTuning
	avail    atomic.Int64 // shadows heap size for lock-free spin probes
	done     atomic.Bool  // shadows closed likewise
	mu       sync.Mutex
	nonEmpty *sync.Cond
	heap     prioHeap
	seq      uint64
	closed   bool
}

func newPrioScheduler(wt waitTuning) *prioScheduler {
	s := &prioScheduler{wt: wt}
	s.nonEmpty = sync.NewCond(&s.mu)
	return s
}

func (s *prioScheduler) push(t *task) {
	s.mu.Lock()
	s.seq++
	heap.Push(&s.heap, prioItem{t: t, seq: s.seq})
	s.avail.Add(1)
	s.mu.Unlock()
	s.nonEmpty.Signal()
}

// take pops the top task if available. done reports the scheduler closed
// and drained; (nil, false) means empty-but-open.
func (s *prioScheduler) take() (t *task, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.heap.Len() == 0 {
		return nil, s.closed
	}
	s.avail.Add(-1)
	return heap.Pop(&s.heap).(prioItem).t, false
}

func (s *prioScheduler) pop(int) (*task, time.Duration) {
	var idle time.Duration
	for {
		if t, done := s.take(); t != nil || done {
			return t, idle
		}
		hit, spun := s.wt.spinPop(func() bool { return s.avail.Load() > 0 || s.done.Load() })
		idle += spun
		if hit {
			continue // re-check authoritatively under the lock
		}
		s.mu.Lock()
		for s.heap.Len() == 0 && !s.closed {
			t0 := s.wt.stamp()
			s.nonEmpty.Wait()
			idle += s.wt.stamp() - t0
		}
		s.mu.Unlock()
	}
}

func (s *prioScheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.done.Store(true)
	s.mu.Unlock()
	s.nonEmpty.Broadcast()
}

type prioItem struct {
	t   *task
	seq uint64
}

type prioHeap []prioItem

func (h prioHeap) Len() int { return len(h) }

func (h prioHeap) Less(i, j int) bool {
	if h[i].t.level != h[j].t.level {
		return h[i].t.level > h[j].t.level // deeper level first
	}
	return h[i].seq < h[j].seq // FIFO among equals
}

func (h prioHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *prioHeap) Push(x any) { *h = append(*h, x.(prioItem)) }

func (h *prioHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = prioItem{}
	*h = old[:n-1]
	return it
}
