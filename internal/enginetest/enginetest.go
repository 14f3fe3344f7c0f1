// Package enginetest provides a sequential-consistency oracle shared by the
// test suites of all execution engines.
//
// The oracle kernel makes every task write, into each data object it
// writes, a value derived from the task's ID and from the values it read.
// Because the derivation is a non-commutative hash chain, *any* execution
// that violates the STF ordering rules (a read overtaking a write, two
// writes swapping, a lost update) ends with data values different from the
// sequential execution's — so comparing final values against the
// sequential engine's checks sequential consistency end-to-end.
//
// The kernel additionally stamps each task with a global ticket at
// execution time; the resulting start order must respect the graph's
// dependencies (stf.Graph.CheckOrder), a second, independent oracle.
package enginetest

import (
	"fmt"
	"sort"
	"sync/atomic"

	"rio/internal/sequential"
	"rio/internal/stf"
)

// Engine is the minimal surface the oracle needs from an execution engine.
type Engine interface {
	Run(numData int, prog stf.Program) error
}

// mix is a non-commutative 64-bit combiner (splitmix-style).
func mix(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 + b + 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0x94D049BB133111EB
	x ^= x >> 27
	return x
}

// Trace holds the observable outcome of one oracle run.
type Trace struct {
	// Vals is the final value of every data object.
	Vals []uint64
	// Tickets holds each task's global execution stamp (1-based).
	Tickets []int64
}

// Order returns the task IDs sorted by execution stamp.
func (tr *Trace) Order() []stf.TaskID {
	order := make([]stf.TaskID, len(tr.Tickets))
	for i := range order {
		order[i] = stf.TaskID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return tr.Tickets[order[a]] < tr.Tickets[order[b]]
	})
	return order
}

// Kernel returns the oracle kernel writing into tr, which must have been
// sized for the graph (use NewTrace).
//
// Reduction accesses use plain addition — a commutative combine — so the
// final value is the same for every legal ordering of a reduction run,
// while any run member racing with a read or write still shows up as a
// value mismatch (and as a data race under -race, since the engines must
// serialize reduction bodies).
func Kernel(tr *Trace, clock *atomic.Int64) stf.Kernel {
	return func(t *stf.Task, _ stf.WorkerID) {
		tr.Tickets[t.ID] = clock.Add(1)
		fold(tr.Vals, uint64(t.ID), t.Accesses)
	}
}

// Fold returns the oracle kernel's value fold alone, over vals, with the
// task's identity taken from its I coordinate instead of its ID — for
// streaming sessions, where IDs are window-local but RandomGraph's I is the
// task's position in the whole flow (equal to its ID in a one-shot run).
func Fold(vals []uint64) stf.Kernel {
	return func(t *stf.Task, _ stf.WorkerID) { fold(vals, uint64(t.I), t.Accesses) }
}

func fold(vals []uint64, id uint64, accesses []stf.Access) {
	h := id
	for _, a := range accesses {
		if a.Mode.Reads() {
			h = mix(h, vals[a.Data])
		}
	}
	for _, a := range accesses {
		switch {
		case a.Mode == stf.WriteOnly:
			// Write-only semantics: overwrite without reading.
			vals[a.Data] = mix(0, h)
		case a.Mode == stf.ReadWrite:
			vals[a.Data] = mix(vals[a.Data], h)
		case a.Mode.Commutes():
			vals[a.Data] += h
		}
	}
}

// NewTrace allocates a trace for g.
func NewTrace(g *stf.Graph) *Trace {
	return &Trace{
		Vals:    make([]uint64, g.NumData),
		Tickets: make([]int64, len(g.Tasks)),
	}
}

// Run executes g on e with the oracle kernel and returns the trace.
func Run(e Engine, g *stf.Graph) (*Trace, error) {
	tr := NewTrace(g)
	var clock atomic.Int64
	if err := e.Run(g.NumData, stf.Replay(g, Kernel(tr, &clock))); err != nil {
		return nil, err
	}
	return tr, nil
}

// RunProgram executes an arbitrary pruned/custom program over g's data with
// the oracle kernel; progFor builds the program from the kernel.
func RunProgram(e Engine, g *stf.Graph, progFor func(stf.Kernel) stf.Program) (*Trace, error) {
	tr := NewTrace(g)
	var clock atomic.Int64
	if err := e.Run(g.NumData, progFor(Kernel(tr, &clock))); err != nil {
		return nil, err
	}
	return tr, nil
}

// CompiledEngine is the surface the oracle needs to check the compiled
// replay path.
type CompiledEngine interface {
	RunCompiled(cp *stf.CompiledProgram, k stf.Kernel) error
}

// RunCompiled executes a program compiled from g with the oracle kernel
// and returns the trace.
func RunCompiled(e CompiledEngine, g *stf.Graph, cp *stf.CompiledProgram) (*Trace, error) {
	tr := NewTrace(g)
	var clock atomic.Int64
	if err := e.RunCompiled(cp, Kernel(tr, &clock)); err != nil {
		return nil, err
	}
	return tr, nil
}

// CheckCompiled runs cp (compiled from g) on e and verifies both oracles
// against the sequential reference, like Check does for closure replay.
func CheckCompiled(e CompiledEngine, g *stf.Graph, cp *stf.CompiledProgram) error {
	want, err := Golden(g)
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	got, err := RunCompiled(e, g, cp)
	if err != nil {
		return fmt.Errorf("compiled run: %w", err)
	}
	return Compare(g, want, got)
}

// Golden returns the sequential-execution trace of g (the STF reference
// semantics).
func Golden(g *stf.Graph) (*Trace, error) {
	return Run(sequential.New(sequential.Options{}), g)
}

// Check runs g on e and verifies both oracles against the sequential
// reference: identical final data values, and a dependency-respecting
// execution order. It returns a descriptive error on the first violation.
func Check(e Engine, g *stf.Graph) error {
	want, err := Golden(g)
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	got, err := Run(e, g)
	if err != nil {
		return fmt.Errorf("engine run: %w", err)
	}
	return Compare(g, want, got)
}

// Compare verifies got against the sequential reference trace want.
func Compare(g *stf.Graph, want, got *Trace) error {
	for d := range want.Vals {
		if want.Vals[d] != got.Vals[d] {
			return fmt.Errorf("data %d: got %#x, sequential reference %#x (sequential consistency violated)", d, got.Vals[d], want.Vals[d])
		}
	}
	for id, tk := range got.Tickets {
		if tk == 0 && len(g.Tasks) > 0 {
			return fmt.Errorf("task %d never executed", id)
		}
	}
	if bad := g.CheckOrder(got.Order()); bad != stf.NoTask {
		return fmt.Errorf("execution order violates dependencies at task %d", bad)
	}
	return nil
}
