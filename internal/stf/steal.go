package stf

// Hybrid in-order execution with bounded, dependency-safe work stealing.
//
// The paper's static TaskID→WorkerID mapping makes the in-order model
// serialize on a hot worker when the mapping is skewed — its own preflight
// (RIO-M004) proves the bound. A StealPolicy lets an idle worker execute a
// victim's *next* in-order task when the per-data counter state proves all
// of the task's accesses are already available, so executing it elsewhere
// is indistinguishable from the owner running it:
//
//   - The registered counter values of a task T (the values Algorithm 2
//     waits on) are a function of the task-flow prefix before T alone, so
//     they are identical on every worker's replay. A thief therefore checks
//     readiness against the shared cells with T's *registered* values,
//     precomputed per task by BuildStealMeta from the compiled program.
//   - Readiness is stable once true: any task that could perturb a shared
//     cell past T's registered values is registered after T and therefore
//     transitively waits for T's completion, whoever executes T.
//   - Claiming is a per-task atomic CAS (the claim table of partial
//     mappings): exactly one executor wins. The owner, on reaching a
//     claimed slot, advances its private counters exactly as if it had run
//     the task (the declare_* bookkeeping of any foreign task); the thief
//     publishes the task's terminate_* effects through the same shared-cell
//     protocol, so downstream wakeups and the divergence guard observe the
//     canonical order.
//
// A nil policy keeps the paper's pure static model: a compiled replay tests
// one flag per micro-op and touches no claim or steal table (see
// BenchmarkStealOverhead).

// DefaultStealScan bounds how many steal candidates one attempt inspects
// when StealPolicy.MaxScan is zero.
const DefaultStealScan = 8

// StealPolicy enables bounded, dependency-safe work stealing in the
// in-order engine (Options.Steal). The zero value of every field selects a
// sensible default; a nil *StealPolicy disables stealing entirely.
type StealPolicy struct {
	// MaxScan bounds one steal attempt: how many victims' next-task slots
	// are probed. 0 means DefaultStealScan.
	MaxScan int
	// Victims is the ranked victim preference — workers to steal from, in
	// descending priority (typically the overloaded workers the preflight
	// mapping analysis ranked, see sched.RankVictims). Empty means every
	// other worker, scanned in neighbor-ring order starting after the
	// thief.
	Victims []WorkerID
}

// ScanBound returns the effective MaxScan.
func (p *StealPolicy) ScanBound() int {
	if p == nil || p.MaxScan <= 0 {
		return DefaultStealScan
	}
	return p.MaxScan
}

// StealReq is the readiness requirement of one access of a stealable task:
// the registered per-data counter values the get_* call of Algorithm 2
// compares against. They depend only on the task-flow prefix before the
// task, never on which worker evaluates them.
type StealReq struct {
	// Data and Mode identify the access.
	Data DataID
	Mode AccessMode
	// LastWrite is the required lastExecutedWrite (the last write
	// registered before the task; NoTask if none).
	LastWrite int64
	// Reads and Reds are the required nbReadsSinceWrite /
	// nbRedsSinceWrite counts at the task's registration.
	Reads int64
	Reds  int64
	// RedsBefore is the reduction count at the start of the task's
	// reduction run (Reduction accesses wait with >=, so members of the
	// same run commute).
	RedsBefore int64
}

// Ready reports whether the access may proceed given the shared cell's
// current counters — exactly the readiness predicate of the get_read /
// get_write / get_red calls.
func (r *StealReq) Ready(lastWrite, reads, reds int64) bool {
	switch {
	case r.Mode.Writes():
		return lastWrite == r.LastWrite && reads == r.Reads && reds == r.Reds
	case r.Mode.Commutes():
		return lastWrite == r.LastWrite && reads == r.Reads && reds >= r.RedsBefore
	default:
		return lastWrite == r.LastWrite && reds == r.Reds
	}
}

// StealMeta is the per-task claim/ownership metadata of a compiled
// program: for every task its owner, its readiness requirements, and a
// per-owner index of tasks in flow order. It is immutable after
// BuildStealMeta and shared read-only by every thief of every engine that
// runs the program (see CompiledProgram.StealMeta).
type StealMeta struct {
	// Program is the program the metadata describes and the only one it may
	// be stolen from: the canonical form of what BuildStealMeta was given. A
	// thief proves readiness against the shared cells, so every access of
	// the flow must publish there — streams with elided data do not.
	Program *CompiledProgram
	// Owners maps each task index to its owning worker, or -1 for tasks
	// absent from every stream (a hand-built or mutated program: never
	// stealable).
	Owners []WorkerID
	// Reqs holds, per task, one StealReq per access (flow-order
	// registered values; nil for non-surviving tasks).
	Reqs [][]StealReq
	// ByOwner lists each worker's owned surviving tasks in flow order —
	// the victim queues thieves scan.
	ByOwner [][]int32
}

// StealMeta returns cp's steal metadata, built by the first request and
// shared by every later one; engines and sessions may ask concurrently.
// The tables ride on the program: whoever caches cp (a graph cache, a
// stream's shape cache, a server's flow table) caches them with it, and a
// program that is evicted or was made for one run (a recorded closure
// flow) takes them along.
func (cp *CompiledProgram) StealMeta() *StealMeta {
	cp.stealOnce.Do(func() { cp.stealMeta = BuildStealMeta(cp) })
	return cp.stealMeta
}

// BuildStealMeta derives steal metadata from a compiled program, first
// re-lowering it to canonical form when it carries elided data (the
// requirements below describe every access, so the streams must publish
// every access; run StealMeta.Program, never cp as given). Ownership
// is recovered from the streams (each OpExec belongs to the stream's
// worker); the registered counter values are produced by replaying the
// surviving flow's declare_* semantics once. Tasks without an OpExec in
// any stream contribute neither requirements nor counter updates.
func BuildStealMeta(cp *CompiledProgram) *StealMeta {
	cp = cp.Canonical()
	n := len(cp.Tasks)
	m := &StealMeta{
		Program: cp,
		Owners:  cp.execOwners(),
		Reqs:    make([][]StealReq, n),
		ByOwner: make([][]int32, cp.Workers),
	}

	// One forward pass simulating every worker's (identical) private
	// counters over the surviving flow.
	type cell struct {
		lastWrite  int64
		reads      int64
		reds       int64
		redsBefore int64
	}
	cells := make([]cell, cp.NumData)
	for d := range cells {
		cells[d].lastWrite = int64(NoTask)
	}
	for i := range cp.Tasks {
		w := m.Owners[i]
		if w < 0 {
			continue
		}
		t := &cp.Tasks[i]
		reqs := make([]StealReq, len(t.Accesses))
		// Snapshot every requirement against the pre-task counters before
		// applying any of the task's own updates: the owner's get_* calls all
		// evaluate against the local state registered *before* the task (its
		// declares happen at the terminates), so two accesses of one task to
		// the same data must both see the pre-task values.
		for j, a := range t.Accesses {
			c := &cells[a.Data]
			reqs[j] = StealReq{
				Data:       a.Data,
				Mode:       a.Mode,
				LastWrite:  c.lastWrite,
				Reads:      c.reads,
				Reds:       c.reds,
				RedsBefore: c.redsBefore,
			}
		}
		for _, a := range t.Accesses {
			c := &cells[a.Data]
			switch {
			case a.Mode.Writes():
				c.lastWrite = int64(t.ID)
				c.reads, c.reds, c.redsBefore = 0, 0, 0
			case a.Mode.Commutes():
				c.reds++
			default:
				c.reads++
				c.redsBefore = c.reds
			}
		}
		m.Reqs[i] = reqs
		m.ByOwner[w] = append(m.ByOwner[w], int32(i))
	}
	return m
}
