// Package stf defines the Sequential Task Flow (STF) programming model used
// throughout this repository: a program is a sequence of tasks, each
// declaring the data it accesses and an access mode, from which data
// dependencies are implicitly derived (paper §2.1).
//
// The package is deliberately engine-agnostic. Execution engines (the
// decentralized in-order RIO engine, the centralized out-of-order baseline
// and the sequential reference executor) all consume the same Program /
// Submitter contract defined here, so a single STF program can be run
// unchanged under any execution model.
package stf

import "fmt"

// TaskID identifies a task by its position in the task flow. IDs are
// assigned in submission order starting at 0; the sequential-consistency
// guarantee of STF is defined with respect to this order.
type TaskID int64

// WorkerID identifies a compute unit (one worker goroutine). The special
// value MasterWorker denotes the control thread of a centralized engine,
// which never executes tasks itself.
type WorkerID int

// MasterWorker is the WorkerID reported by a Submitter driven by a
// centralized master thread (or a recorder) rather than by a worker.
const MasterWorker WorkerID = -1

// SharedWorker may be returned by a Mapping for tasks with no static
// owner: the decentralized engine assigns such a task dynamically to the
// first worker whose replay reaches it (partial mappings — the paper's
// concluding future-work direction). Other engines treat it like an
// unhinted task.
const SharedWorker WorkerID = -2

// NoTask is a sentinel TaskID meaning "no task", used e.g. as the initial
// value of last-write registers before any write happened.
const NoTask TaskID = -1

// DataID identifies a data object (a shared-memory region managed by the
// runtime). Data objects are pre-registered: an engine's Run method is told
// how many exist and allocates synchronization state for each.
type DataID int32

// AccessMode declares how a task accesses a data object (paper §2.1).
type AccessMode uint8

const (
	// None means the data is not accessed. It never appears in a task's
	// access list; it exists to mirror the paper's formal specification.
	None AccessMode = iota
	// ReadOnly accesses must happen after all previous writes.
	ReadOnly
	// WriteOnly accesses must happen after all previous reads and writes.
	WriteOnly
	// ReadWrite accesses combine both constraints; for synchronization
	// purposes they are handled exactly like WriteOnly (the write-side
	// wait already subsumes the read-side one).
	ReadWrite
	// Reduction accesses commute with each other: a maximal run of
	// consecutive Reduction accesses to the same data behaves like a
	// single write (ordered after all earlier reads and writes, and
	// before all later ones), but the tasks *within* the run may execute
	// in any order, under mutual exclusion provided by the engine. This
	// is the paper's §3.4 extension beyond strict sequential consistency
	// (data versioning in SuperGlue, Zafari/Tillenius/Larsson), typical
	// for accumulations: sum += partial.
	Reduction
)

// String returns the conventional short name of the mode.
func (m AccessMode) String() string {
	switch m {
	case None:
		return "None"
	case ReadOnly:
		return "R"
	case WriteOnly:
		return "W"
	case ReadWrite:
		return "RW"
	case Reduction:
		return "Red"
	}
	return fmt.Sprintf("AccessMode(%d)", uint8(m))
}

// Writes reports whether the mode includes a write.
func (m AccessMode) Writes() bool { return m == WriteOnly || m == ReadWrite }

// Reads reports whether the mode includes a read.
func (m AccessMode) Reads() bool { return m == ReadOnly || m == ReadWrite }

// Commutes reports whether the mode is a commutative reduction.
func (m AccessMode) Commutes() bool { return m == Reduction }

// Access declares one data dependency of a task.
type Access struct {
	Data DataID
	Mode AccessMode
	// Idempotent marks a write or reduction as safe to re-execute. No
	// engine reads it: it stays for wire compatibility (the JSON member
	// "idempotent" is read, validated and written) and for flow identity
	// (it is a bit of a served flow's hash).
	Idempotent bool
}

// R constructs a read-only access.
func R(d DataID) Access { return Access{Data: d, Mode: ReadOnly} }

// W constructs a write-only access.
func W(d DataID) Access { return Access{Data: d, Mode: WriteOnly} }

// RW constructs a read-write access.
func RW(d DataID) Access { return Access{Data: d, Mode: ReadWrite} }

// Red constructs a commutative reduction access.
func Red(d DataID) Access { return Access{Data: d, Mode: Reduction} }

// Task is one node of a recorded task flow. Recorded tasks carry a kernel
// selector and tile coordinates instead of a closure so that replaying a
// graph allocates nothing per task (important when measuring fine-grained
// per-task overhead, the paper's central concern).
type Task struct {
	// ID is the task's position in the task flow.
	ID TaskID
	// Kernel selects the operation to perform; values are defined by the
	// workload (see internal/graphs for the kernels of the paper's four
	// experiments).
	Kernel int
	// I, J, K are kernel parameters, typically tile coordinates.
	I, J, K int
	// Accesses lists the data dependencies of the task.
	Accesses []Access
}

// Kernel executes a recorded task on behalf of worker w. Implementations
// dispatch on t.Kernel and use t.I/J/K to locate their operands.
type Kernel func(t *Task, w WorkerID)

// TaskFunc is a task body submitted as a closure through Submitter.Submit.
type TaskFunc func()

// Submitter is the interface through which an STF program hands tasks to an
// execution engine. The decentralized engine replays the program once per
// worker, so a Program must be deterministic: every replay must produce the
// same sequence of tasks with the same accesses (paper §3.3, assumption 2).
type Submitter interface {
	// Submit appends a closure task to the task flow and returns its ID.
	Submit(fn TaskFunc, accesses ...Access) TaskID

	// SubmitTask appends a recorded task. The task's ID field must be
	// at least the next unseen ID; gaps are permitted and mean the IDs in
	// between were pruned from this worker's view of the flow (paper
	// §3.5). This path performs no per-task allocation.
	SubmitTask(t *Task, k Kernel) TaskID

	// Worker returns the identity of the worker replaying the program
	// (MasterWorker for centralized and sequential engines). Programs may
	// use it for task pruning.
	Worker() WorkerID

	// NumWorkers returns the number of workers of the running engine.
	NumWorkers() int
}

// Program is a sequential task-based code: a function that submits a
// deterministic sequence of tasks.
type Program func(Submitter)

// Mapping deterministically assigns each task to the worker that must
// execute it (paper §3.2, "parametric resources allocation": a closure of
// type TaskID → WorkerID).
type Mapping func(TaskID) WorkerID

// Graph is a recorded task flow over a fixed set of data objects.
type Graph struct {
	// NumData is the number of data objects referenced by the tasks.
	NumData int
	// Tasks is the task flow, in submission order; Tasks[i].ID == i.
	Tasks []Task
	// Name labels the workload for reports.
	Name string
}

// NewGraph returns an empty graph over numData data objects.
func NewGraph(name string, numData int) *Graph {
	return &Graph{NumData: numData, Name: name}
}

// Add appends a task with the given kernel, coordinates and accesses, and
// returns its ID.
func (g *Graph) Add(kernel, i, j, k int, accesses ...Access) TaskID {
	id := TaskID(len(g.Tasks))
	g.Tasks = append(g.Tasks, Task{ID: id, Kernel: kernel, I: i, J: j, K: k, Accesses: accesses})
	return id
}

// Validate checks structural well-formedness: sequential IDs, data IDs in
// range, only the four declared modes, and no data accessed twice by the
// same task.
func (g *Graph) Validate() error {
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.ID != TaskID(i) {
			return fmt.Errorf("stf: task at position %d has ID %d", i, t.ID)
		}
		if err := checkAccesses(t.Accesses, g.NumData); err != nil {
			return fmt.Errorf("stf: task %d %w", i, err)
		}
	}
	return nil
}

// dupScanMax is the longest access list whose duplicates are found by
// scanning the prefix; real tasks declare a handful of accesses.
const dupScanMax = 32

// checkAccesses is the one structural check of a task's access list, shared
// by Graph.Validate and Window.Add: every datum in [0, numData), a declared
// mode, no datum twice. A list longer than dupScanMax (only a hostile wire
// flow has them) is checked through a set, so the cost stays linear in what
// the client sent; any other allocates nothing.
func checkAccesses(accesses []Access, numData int) error {
	short := len(accesses) <= dupScanMax
	for ai, a := range accesses {
		if a.Data < 0 || int(a.Data) >= numData {
			return fmt.Errorf("accesses data %d, out of range (outside [0,%d))", a.Data, numData)
		}
		if a.Mode == None || a.Mode > Reduction {
			return fmt.Errorf("declares invalid access mode %d on data %d", a.Mode, a.Data)
		}
		if !short {
			continue // duplicates of a long list are found through the set below
		}
		for _, prev := range accesses[:ai] {
			if prev.Data == a.Data {
				return fmt.Errorf("accesses data %d more than once", a.Data)
			}
		}
	}
	if short {
		return nil
	}
	seen := make(map[DataID]struct{}, len(accesses))
	for _, a := range accesses {
		if _, dup := seen[a.Data]; dup {
			return fmt.Errorf("accesses data %d more than once", a.Data)
		}
		seen[a.Data] = struct{}{}
	}
	return nil
}

// Replay returns a Program that submits every task of g, executing each
// with kernel k. This is the allocation-free path used by all benchmarks.
func Replay(g *Graph, k Kernel) Program {
	return func(s Submitter) {
		for i := range g.Tasks {
			s.SubmitTask(&g.Tasks[i], k)
		}
	}
}
