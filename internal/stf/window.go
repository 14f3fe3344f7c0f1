package stf

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Window records one bounded slice of an unbounded task flow. Task IDs are
// window-local (0..Len()-1): a streaming session replays one window at a
// time between epoch barriers, so identity only has to be unique within the
// window, and the per-data synchronization state recycled at the barrier is
// sized by the window, not the flow.
//
// A Window is a recording buffer, not a graph: Reset keeps every backing
// allocation (task slice, per-slot access storage, touched set) so a
// steady-state pipeline records window after window without allocating.
// Windows are not safe for concurrent use; one producer records while the
// previous window executes.
type Window struct {
	numData int
	tasks   []Task
	bodies  []TaskFunc // parallel to tasks; nil entries are kernel tasks

	// accs[i] is task i's reusable access storage. Each slot owns its own
	// backing array — a single flat arena would invalidate earlier tasks'
	// slices when an append reallocates it.
	accs [][]Access

	// Touched-data tracking. stamp[d] == gen marks d as already recorded in
	// touched this window; bumping gen on Reset clears every mark in O(1).
	touched []DataID
	stamp   []uint32
	gen     uint32
}

// NewWindow returns an empty window over numData data objects.
func NewWindow(numData int) *Window {
	if numData < 0 {
		numData = 0
	}
	return &Window{
		numData: numData,
		stamp:   make([]uint32, numData),
		gen:     1,
	}
}

// Len reports the number of tasks recorded since the last Reset.
func (w *Window) Len() int { return len(w.tasks) }

// NumData reports the size of the data universe the window records against.
func (w *Window) NumData() int { return w.numData }

// Tasks exposes the recorded tasks. The slice aliases the window's storage
// and is valid only until the next Reset.
func (w *Window) Tasks() []Task { return w.tasks }

// Bodies exposes the recorded closure bodies, parallel to Tasks. A nil
// entry means the task carries kernel coordinates instead of a closure.
func (w *Window) Bodies() []TaskFunc { return w.bodies }

// Touched lists the data objects accessed by at least one task recorded
// since the last Reset, in first-touch order. This is exactly the set whose
// per-data state must be recycled at the window's epoch boundary — O(touched)
// per window, independent of flow length.
func (w *Window) Touched() []DataID { return w.touched }

// Add records one task and returns its window-local ID. body may be nil for
// kernel-dispatched tasks (kernel/i/j/k select the work). Accesses are
// validated inline — range, mode, duplicate data — so a window that records
// cleanly is structurally valid by construction and Flush never has to
// re-walk it.
func (w *Window) Add(body TaskFunc, kernel, i, j, k int, accesses []Access) (TaskID, error) {
	id := TaskID(len(w.tasks))
	var acc []Access
	if int(id) < len(w.accs) {
		acc = w.accs[id][:0]
	}
	if err := checkAccesses(accesses, w.numData); err != nil {
		return NoTask, fmt.Errorf("stf: window task %d %w", id, err)
	}
	acc = append(acc, accesses...)
	for _, a := range accesses {
		if w.stamp[a.Data] != w.gen {
			w.stamp[a.Data] = w.gen
			w.touched = append(w.touched, a.Data)
		}
	}
	if int(id) < len(w.accs) {
		w.accs[id] = acc
	} else {
		w.accs = append(w.accs, acc)
	}
	w.tasks = append(w.tasks, Task{ID: id, Kernel: kernel, I: i, J: j, K: k, Accesses: acc})
	w.bodies = append(w.bodies, body)
	return id, nil
}

// Reset clears the window for the next epoch, keeping all capacity. The
// touched set is cleared by bumping the generation stamp, not by rewriting
// the per-data stamp array; only on the (rare) uint32 wraparound is the
// stamp array rewritten.
func (w *Window) Reset() {
	w.tasks = w.tasks[:0]
	w.bodies = w.bodies[:0]
	w.touched = w.touched[:0]
	w.gen++
	if w.gen == 0 {
		for i := range w.stamp {
			w.stamp[i] = 0
		}
		w.gen = 1
	}
}

// Fingerprint returns the window's shape hash: SHA-256 over the data-ID /
// access-mode structure plus numData and task count, excluding kernel
// selectors, coordinates, closure bodies and idempotence flags. Two windows
// with equal fingerprints synchronize identically under the same mapping, so
// a program compiled from one window's shape replays any window with the
// same fingerprint — the cache key for per-shape compiled windows. Periodic
// pipelines whose payloads vary but whose access structure repeats hit the
// cache every window after the first.
func (w *Window) Fingerprint() [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(w.numData))
	put(uint64(len(w.tasks)))
	for i := range w.tasks {
		t := &w.tasks[i]
		put(uint64(len(t.Accesses)))
		for _, a := range t.Accesses {
			put(uint64(uint32(a.Data))<<8 | uint64(a.Mode))
		}
	}
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}

// Graph returns a Graph view over the window's storage. The view aliases
// the window and is valid only until the next Reset; use CloneGraph for
// anything that outlives the window (such as a cached compiled program).
func (w *Window) Graph(name string) *Graph {
	return &Graph{NumData: w.numData, Tasks: w.tasks, Name: name}
}

// CloneGraph deep-copies the recorded tasks — access lists included — into
// freshly owned storage. Compiled programs alias their source graph's task
// table, so a program cached across windows must be compiled from a clone,
// never from the reusable window buffer.
func (w *Window) CloneGraph(name string) *Graph {
	tasks := make([]Task, len(w.tasks))
	copy(tasks, w.tasks)
	for i := range tasks {
		tasks[i].Accesses = append([]Access(nil), tasks[i].Accesses...)
	}
	return &Graph{NumData: w.numData, Tasks: tasks, Name: name}
}
