// Package sched provides the static task mappings the RIO execution model
// requires (paper §3.2: "parametric resources allocation" — the programmer
// supplies a closure TaskID → WorkerID) and the task-pruning analysis of
// §3.5.
//
// The mappings mirror the classic static-scheduling literature the paper
// points to: cyclic and block distributions, ScaLAPACK-style 2-D
// block-cyclic tile ownership for dense linear algebra, and owner-computes
// derivations that assign each task to the owner of the tile it writes.
package sched

import (
	"fmt"

	"rio/internal/stf"
)

// Cyclic distributes tasks round-robin: task id runs on worker id mod p.
func Cyclic(p int) stf.Mapping {
	return func(id stf.TaskID) stf.WorkerID {
		return stf.WorkerID(id % stf.TaskID(p))
	}
}

// Block splits the first nTasks tasks into p contiguous chunks (the last
// workers get one task fewer when p does not divide nTasks). Tasks beyond
// nTasks map to the last worker.
func Block(nTasks, p int) stf.Mapping {
	if nTasks < p {
		nTasks = p
	}
	chunk := (nTasks + p - 1) / p
	return func(id stf.TaskID) stf.WorkerID {
		w := int(id) / chunk
		if w >= p {
			w = p - 1
		}
		return stf.WorkerID(w)
	}
}

// BlockCyclic distributes blocks of blockSize consecutive tasks round-robin
// over p workers.
func BlockCyclic(p, blockSize int) stf.Mapping {
	return func(id stf.TaskID) stf.WorkerID {
		return stf.WorkerID((int(id) / blockSize) % p)
	}
}

// Single maps every task to worker w (a degenerate mapping useful for
// tests and for measuring pure unrolling overhead).
func Single(w stf.WorkerID) stf.Mapping {
	return func(stf.TaskID) stf.WorkerID { return w }
}

// Table returns a mapping backed by a lookup table; every task beyond the
// table maps to worker 0 — callers should size the table to the task flow.
func Table(owners []stf.WorkerID) stf.Mapping {
	return func(id stf.TaskID) stf.WorkerID {
		if int(id) < len(owners) {
			return owners[id]
		}
		return 0
	}
}

// FromTask precomputes a table mapping for a recorded graph by applying f
// to each task (f can inspect kernel and tile coordinates).
func FromTask(g *stf.Graph, f func(*stf.Task) stf.WorkerID) stf.Mapping {
	owners := make([]stf.WorkerID, len(g.Tasks))
	for i := range g.Tasks {
		owners[i] = f(&g.Tasks[i])
	}
	return Table(owners)
}

// Grid2D is a pr×pc process grid for 2-D block-cyclic tile ownership
// (ScaLAPACK's distribution, which the paper cites as the standard static
// mapping for dense linear algebra).
type Grid2D struct {
	// PR and PC are the grid dimensions; worker (r, c) has ID r·PC + c.
	PR, PC int
}

// NewGrid2D returns a process grid for p workers, as square as possible
// (pr·pc == p with pr the largest divisor of p not exceeding √p).
func NewGrid2D(p int) Grid2D {
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return Grid2D{PR: pr, PC: p / pr}
}

// Owner returns the worker owning tile (i, j) under 2-D block-cyclic
// distribution.
func (g Grid2D) Owner(i, j int) stf.WorkerID {
	return stf.WorkerID((i%g.PR)*g.PC + j%g.PC)
}

// OwnerComputes derives a mapping for a recorded linear-algebra graph by
// assigning each task to the owner of the tile it writes. All graphs in
// internal/graphs store the written tile's coordinates in (Task.I, Task.J),
// so the rule applies uniformly to GEMM, LU, Cholesky and wavefront flows.
func OwnerComputes(g *stf.Graph, grid Grid2D) stf.Mapping {
	return FromTask(g, func(t *stf.Task) stf.WorkerID { return grid.Owner(t.I, t.J) })
}

// Owners resolves m over g's tasks: owners[i] = m(i).
func Owners(g *stf.Graph, m stf.Mapping) []stf.WorkerID {
	owners := make([]stf.WorkerID, len(g.Tasks))
	for i := range owners {
		owners[i] = m(stf.TaskID(i))
	}
	return owners
}

// Validate checks that m maps every task of g into [0, p) or to
// stf.SharedWorker (partial mappings).
func Validate(g *stf.Graph, m stf.Mapping, p int) error {
	return ValidateOwners(Owners(g, m), p)
}

// ValidateOwners is Validate over a resolved owner table.
func ValidateOwners(owners []stf.WorkerID, p int) error {
	for i, w := range owners {
		if w != stf.SharedWorker && (w < 0 || int(w) >= p) {
			return fmt.Errorf("sched: mapping(%d) = %d out of range [0,%d)", i, w, p)
		}
	}
	return nil
}

// Partial wraps a mapping, replacing the ownership of tasks selected by
// shared with stf.SharedWorker: those tasks are claimed dynamically by the
// first worker to reach them (partial mappings).
func Partial(m stf.Mapping, shared func(stf.TaskID) bool) stf.Mapping {
	return func(id stf.TaskID) stf.WorkerID {
		if shared(id) {
			return stf.SharedWorker
		}
		return m(id)
	}
}

// Histogram returns the number of tasks mapped to each of p workers — a
// quick load-balance diagnostic for a static mapping. Tasks without a
// static owner (stf.SharedWorker) are not counted.
func Histogram(g *stf.Graph, m stf.Mapping, p int) []int {
	h := make([]int, p)
	for i := range g.Tasks {
		if w := m(stf.TaskID(i)); w >= 0 && int(w) < p {
			h[w]++
		}
	}
	return h
}
