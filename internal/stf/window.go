package stf

import (
	"fmt"
	"math/bits"
)

// Window records one bounded slice of an unbounded task flow. Task IDs are
// window-local (0..Len()-1): a streaming session replays one window at a
// time, joining each before the next starts, so identity only has to be
// unique within the window, and the per-data synchronization state recycled
// between windows is sized by the window, not the flow.
//
// A Window is a recording buffer, not a graph: Reset keeps every backing
// allocation (task slice, access slab, touched set) so a steady-state
// pipeline records window after window without allocating. Add is the one
// pass the producer makes over a task: it validates the accesses, copies
// them, marks the touched data and advances the shape hash, so nothing
// re-walks the window at Flush. Windows are not safe for concurrent use; one
// producer records while the previous window executes.
type Window struct {
	numData int
	tasks   []Task
	bodies  []TaskFunc // parallel to tasks; nil entries are kernel tasks

	// slab holds the accesses recorded since the last Reset, back to back;
	// task i's Accesses is a three-index sub-slice of it, so nothing can
	// append through a task into its successor's accesses. When an append
	// regrows the slab, tasks recorded earlier keep pointing into the old
	// array, which nothing writes again; the capacity is steady once the
	// largest window has been seen.
	slab []Access

	// Running shape hash over the tasks recorded so far (see Fingerprint).
	ha, hb uint64

	// Touched-data tracking. stamp[d] == gen marks d as already recorded in
	// touched this window; bumping gen on Reset clears every mark in O(1).
	touched []DataID
	stamp   []uint32
	gen     uint32
}

// Seeds and multipliers of the two shape-hash lanes: odd constants with no
// structure in common (the 64-bit golden ratio and three xxHash64 primes).
const (
	shapeSeedA = 0x9E3779B97F4A7C15
	shapeSeedB = 0xC2B2AE3D27D4EB4F
	shapeMulA  = 0x9E3779B185EBCA87
	shapeMulB  = 0x165667B19E3779F9
)

// shapeMix advances both lanes by one word. The lanes differ in algebra as
// well as in constants — a folds the 128-bit product of (a^v), b is
// rotate-add-multiply — so an input pair that cancels in one has no reason
// to cancel in the other.
func shapeMix(a, b, v uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a^v, shapeMulA)
	return hi ^ lo, (bits.RotateLeft64(b, 29) + v) * shapeMulB
}

// shapeFinal is the splitmix64 finaliser: every input bit reaches every
// output bit.
func shapeFinal(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// NewWindow returns an empty window over numData data objects.
func NewWindow(numData int) *Window {
	if numData < 0 {
		numData = 0
	}
	return &Window{
		numData: numData,
		ha:      shapeSeedA,
		hb:      shapeSeedB,
		stamp:   make([]uint32, numData),
		gen:     1,
	}
}

// Len reports the number of tasks recorded since the last Reset.
func (w *Window) Len() int { return len(w.tasks) }

// NumData reports the size of the data universe the window records against.
func (w *Window) NumData() int { return w.numData }

// Tasks exposes the recorded tasks. The slice and the access lists of its
// tasks alias the window's storage and are valid only until the next Reset.
func (w *Window) Tasks() []Task { return w.tasks }

// Bodies exposes the recorded closure bodies, parallel to Tasks. A nil
// entry means the task carries kernel coordinates instead of a closure.
func (w *Window) Bodies() []TaskFunc { return w.bodies }

// Touched lists the data objects accessed by at least one task recorded
// since the last Reset, in first-touch order. This is exactly the set whose
// per-data state must be recycled around the window — O(touched)
// per window, independent of flow length.
func (w *Window) Touched() []DataID { return w.touched }

// Add records one task and returns its window-local ID. body may be nil for
// kernel-dispatched tasks (kernel/i/j/k select the work). Accesses are
// validated inline — range, mode, duplicate data — so a window that records
// cleanly is structurally valid by construction and Flush never has to
// re-walk it.
func (w *Window) Add(body TaskFunc, kernel, i, j, k int, accesses []Access) (TaskID, error) {
	n := len(w.tasks)
	if err := checkAccesses(accesses, w.numData); err != nil {
		return NoTask, fmt.Errorf("stf: window task %d %w", n, err)
	}
	// The access count goes in before the accesses, so the word sequence is
	// a prefix code of the task split: [a][b] and [a,b] hash differently.
	ha, hb := shapeMix(w.ha, w.hb, uint64(len(accesses)))
	slab, lo := w.slab, len(w.slab)
	// Element by element: the lists are short, and append(slab, accesses...)
	// is a memmove call per task.
	for _, a := range accesses {
		slab = append(slab, a)
		ha, hb = shapeMix(ha, hb, uint64(uint32(a.Data))<<8|uint64(a.Mode))
		if w.stamp[a.Data] != w.gen {
			w.stamp[a.Data] = w.gen
			w.touched = append(w.touched, a.Data)
		}
	}
	w.slab, w.ha, w.hb = slab, ha, hb

	// Extend tasks by one slot and fill it in place, instead of building a
	// 64-byte Task and copying it in: the slot holds a task of an earlier
	// window or a zero value, and every field is overwritten.
	if n < cap(w.tasks) {
		w.tasks = w.tasks[:n+1]
	} else {
		w.tasks = append(w.tasks, Task{})
	}
	t := &w.tasks[n]
	t.ID, t.Kernel, t.I, t.J, t.K = TaskID(n), kernel, i, j, k
	t.Accesses = slab[lo:len(slab):len(slab)]
	w.bodies = append(w.bodies, body)
	return TaskID(n), nil
}

// Reset clears the window for the next one, keeping all capacity. The
// touched set is cleared by bumping the generation stamp, not by rewriting
// the per-data stamp array; only on the (rare) uint32 wraparound is the
// stamp array rewritten.
func (w *Window) Reset() {
	w.tasks = w.tasks[:0]
	w.bodies = w.bodies[:0]
	w.slab = w.slab[:0]
	w.ha, w.hb = shapeSeedA, shapeSeedB
	w.touched = w.touched[:0]
	w.gen++
	if w.gen == 0 {
		for i := range w.stamp {
			w.stamp[i] = 0
		}
		w.gen = 1
	}
}

// Fingerprint returns the window's shape hash in O(1): Add has already
// mixed every task's access count and (data, mode) pairs into two 64-bit
// lanes, and this finalises them with numData and the task count. Kernel
// selectors, coordinates, closure bodies and idempotence flags stay out.
// Windows of equal access structure have equal fingerprints, so the
// fingerprint is the cache key for per-shape compiled windows: periodic
// pipelines whose payloads vary but whose access structure repeats hit the
// cache every window after the first.
//
// The hash is fast, not collision-resistant. Equal fingerprints do not prove
// equal structure; a caller about to replay a program compiled from another
// window must confirm the hit with SameShape.
func (w *Window) Fingerprint() [2]uint64 {
	a, b := shapeMix(w.ha, w.hb, uint64(w.numData))
	a, b = shapeMix(a, b, uint64(len(w.tasks)))
	return [2]uint64{shapeFinal(a), shapeFinal(b)}
}

// SameShape reports whether tasks has exactly the window's access
// structure: as many tasks, and task by task the same data in the same
// order under the same modes — everything Fingerprint hashes, compared
// instead of hashed. Two windows with the same shape synchronize
// identically under the same mapping, so a program compiled from one
// replays the other.
func (w *Window) SameShape(tasks []Task) bool {
	if len(tasks) != len(w.tasks) {
		return false
	}
	for i := range tasks {
		a, b := w.tasks[i].Accesses, tasks[i].Accesses
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j].Data != b[j].Data || a[j].Mode != b[j].Mode {
				return false
			}
		}
	}
	return true
}

// Graph returns a Graph view over the window's storage. The view aliases
// the window and is valid only until the next Reset; use CloneGraph for
// anything that outlives the window (such as a cached compiled program).
func (w *Window) Graph(name string) *Graph {
	return &Graph{NumData: w.numData, Tasks: w.tasks, Name: name}
}

// CloneGraph deep-copies the recorded tasks — access lists included — into
// freshly owned storage: one task table and one exact-size access slab.
// Compiled programs alias their source graph's task table, so a program
// cached across windows must be compiled from a clone, never from the
// reusable window buffer.
func (w *Window) CloneGraph(name string) *Graph {
	tasks := make([]Task, len(w.tasks))
	copy(tasks, w.tasks)
	// Every access recorded since Reset is in w.slab (a regrown slab carries
	// its predecessor's elements over), so its length is the exact total.
	slab := make([]Access, 0, len(w.slab))
	for i := range tasks {
		lo := len(slab)
		slab = append(slab, tasks[i].Accesses...)
		tasks[i].Accesses = slab[lo:len(slab):len(slab)]
	}
	return &Graph{NumData: w.numData, Tasks: tasks, Name: name}
}
