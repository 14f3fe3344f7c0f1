// Package verify implements translation validation for compiled replay:
// an independent static certifier that, given a recorded Graph, a static
// Mapping and a CompiledProgram, proves the flat per-worker instruction
// streams still refine the recorded task flow. Nothing here is shared
// with the compiler (stf.Compile) beyond the instruction format itself —
// the expected micro-op sequences, the counter semantics and the
// happens-before construction are re-derived from the graph and the
// protocol definition (core/data.go, Algorithms 1 and 2), so a compiler
// bug cannot vouch for itself.
//
// Four properties are certified, each with its own RIO-V00x codes:
//
//   - Coverage & order (RIO-V001..V005): every task executes
//     exactly once, on its mapped worker, in program order, with its
//     get_* acquires before the exec and its terminate_* publications
//     after, and with micro-ops matching the recorded access list
//     exactly.
//
//   - Pruning soundness (RIO-V006): a worker's stream may legally omit a
//     foreign task's declares (§3.5 pruning) only when every later wait
//     on the affected data is
//     dominated by a surviving op that re-establishes the same version —
//     checked by simulating each worker's private counters over its
//     stream and comparing them, at every wait, against the counters the
//     full flow implies. An elision that drops a real
//     dependency leaves the simulated counters behind (the wait would
//     admit a stale version) or ahead (the wait could never be
//     satisfied); either divergence is flagged.
//
//   - Static happens-before (RIO-V008): a vector-clock pass over the
//     certified waits proving every conflicting access pair (W→W, W→R,
//     R→W, and reduction fences) is ordered — the compile-time
//     complement of the dynamic trace.RaceDetector.
//
//   - Elision soundness (RIO-V009): a program may lower a data object to
//     no micro-ops at all (CompiledProgram.Elided) only when the object
//     is uncontended — no two conflicting accesses to it belong to tasks
//     of different workers — which the certifier re-derives from the
//     graph and the mapping (elision.go). The claim also fixes what the
//     access-set check expects: exactly the micro-ops of the unclaimed
//     data, so a missing get/terminate/declare on any other object stays
//     RIO-V005. Elided accesses have no wait to certify; the
//     happens-before pass covers them by program order alone, which for
//     an uncontended object is every conflict there is.
//
// Findings flow through the analyze report machinery, so rio-vet,
// preflight and callers of the stf-level API all consume one format.
package verify

import (
	"fmt"
	"slices"

	"rio/internal/analyze"
	"rio/internal/stf"
)

// Config parameterizes a certification run.
type Config struct {
	// Mapping is the static task→worker mapping cp was compiled for. It
	// must be total over the graph and must not return SharedWorker.
	Mapping stf.Mapping
}

// maxPerCode caps how many findings of one code a single certification
// reports: one corrupt stream would otherwise cascade into thousands of
// secondary findings without adding information.
const maxPerCode = 16

// execPos locates a task's (unique) exec group: the worker whose stream
// holds it and the group's 1-based position among that stream's exec
// groups.
type execPos struct {
	worker stf.WorkerID
	idx    int32
}

type certifier struct {
	g   *stf.Graph
	cp  *stf.CompiledProgram
	cfg Config
	rep *analyze.Report

	// streams is cp's streams decoded (stf.Decode), the view every check
	// after scanStructure reads.
	streams [][]stf.Instr

	owners []stf.WorkerID
	// contended marks the claimed-elided data objects checkElision flagged
	// (nil when none).
	contended []bool
	// pre holds, for each task and each of its accesses, the state of the
	// data object the full flow implies just before
	// the task (see reference.go).
	pre [][]preState
	// execCount and execAt record where each task's exec group landed;
	// dupInGroup marks duplicates already reported during the group scan.
	execCount  []int
	execAt     []execPos
	dupInGroup []bool
	// edgeOK marks (task, access) waits that are present in the owner
	// stream and whose simulated counters matched the reference — only
	// those waits contribute happens-before edges.
	edgeOK [][]bool
	// counts tallies findings per code for the cap and the phase gates.
	counts map[analyze.Code]int
}

// Certify checks that cp is a faithful lowering of g under cfg.Mapping
// and returns the findings as an analyze report (empty findings = the
// program is certified). All verifier findings are Error severity.
func Certify(g *stf.Graph, cp *stf.CompiledProgram, cfg Config) *analyze.Report {
	c := &certifier{
		g: g, cp: cp, cfg: cfg,
		rep:    &analyze.Report{},
		counts: make(map[analyze.Code]int),
	}
	if g != nil {
		c.rep.NumData = g.NumData
		c.rep.Tasks = len(g.Tasks)
	}
	if !c.validateInputs() {
		return c.rep.Finish()
	}
	c.checkElision()
	c.buildReference()
	structOK := true
	c.streams = make([][]stf.Instr, len(cp.Streams))
	for w := range cp.Streams {
		if !c.scanStructure(w) {
			structOK = false
		}
	}
	if !structOK {
		// A structurally corrupt stream (unknown opcode, out-of-range
		// IDs) makes group parsing and counter simulation meaningless;
		// report the corruption alone.
		return c.rep.Finish()
	}
	for w := range cp.Streams {
		c.scanGroups(w)
		c.simulate(w)
	}
	c.checkCoverage()
	c.certifyHB()
	return c.rep.Finish()
}

func (c *certifier) addf(code analyze.Code, task stf.TaskID, data stf.DataID, worker stf.WorkerID, format string, args ...any) {
	c.counts[code]++
	if c.counts[code] > maxPerCode {
		return
	}
	c.rep.Add(analyze.Finding{Code: code, Severity: analyze.Error,
		Task: task, Data: data, Worker: worker,
		Message: fmt.Sprintf(format, args...)})
}

// validateInputs checks the (graph, program, mapping) triple is usable at
// all; anything wrong here is RIO-V001 and aborts certification.
func (c *certifier) validateInputs() bool {
	const noID = analyze.NoID
	if c.g == nil || c.cp == nil {
		c.addf(analyze.CodeVerifyStructure, noID, noID, noID,
			"nothing to certify: nil graph or compiled program")
		return false
	}
	if err := c.g.Validate(); err != nil {
		c.addf(analyze.CodeVerifyStructure, noID, noID, noID,
			"graph is malformed: %v", err)
		return false
	}
	if c.cp.Workers < 1 || len(c.cp.Streams) != c.cp.Workers {
		c.addf(analyze.CodeVerifyStructure, noID, noID, noID,
			"program declares %d worker(s) but carries %d stream(s)",
			c.cp.Workers, len(c.cp.Streams))
		return false
	}
	if c.cp.NumData != c.g.NumData {
		c.addf(analyze.CodeVerifyStructure, noID, noID, noID,
			"program compiled over %d data object(s), graph has %d",
			c.cp.NumData, c.g.NumData)
		return false
	}
	if c.cp.Elided != nil && len(c.cp.Elided) != c.g.NumData {
		c.addf(analyze.CodeVerifyStructure, noID, noID, noID,
			"program's elision set covers %d data object(s), graph has %d",
			len(c.cp.Elided), c.g.NumData)
		return false
	}
	if len(c.cp.Tasks) != len(c.g.Tasks) {
		c.addf(analyze.CodeVerifyStructure, noID, noID, noID,
			"program task table has %d task(s), graph has %d",
			len(c.cp.Tasks), len(c.g.Tasks))
		return false
	}
	for i := range c.g.Tasks {
		if !sameTask(&c.cp.Tasks[i], &c.g.Tasks[i]) {
			c.addf(analyze.CodeVerifyStructure, stf.TaskID(i), noID, noID,
				"program task table entry %d does not match the recorded task", i)
			return false
		}
	}
	if c.cfg.Mapping == nil {
		c.addf(analyze.CodeVerifyStructure, noID, noID, noID,
			"no mapping to certify ownership against")
		return false
	}
	c.owners = make([]stf.WorkerID, len(c.g.Tasks))
	for i := range c.g.Tasks {
		o := c.cfg.Mapping(stf.TaskID(i))
		if o < 0 || int(o) >= c.cp.Workers {
			c.addf(analyze.CodeVerifyStructure, stf.TaskID(i), noID, o,
				"mapping sends task %d to worker %d, outside [0,%d) — the mapping cannot certify a compiled program", i, o, c.cp.Workers)
			return false
		}
		c.owners[i] = o
	}
	c.execCount = make([]int, len(c.g.Tasks))
	c.execAt = make([]execPos, len(c.g.Tasks))
	c.dupInGroup = make([]bool, len(c.g.Tasks))
	c.edgeOK = make([][]bool, len(c.g.Tasks))
	return true
}

// sameTask compares the fields of a program task-table entry against the
// recorded task: OpExec dispatches kernels through the table, so a
// diverging entry runs different code even if every stream is faithful.
func sameTask(a, b *stf.Task) bool {
	if a.ID != b.ID || a.Kernel != b.Kernel || a.I != b.I || a.J != b.J || a.K != b.K ||
		len(a.Accesses) != len(b.Accesses) {
		return false
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			return false
		}
	}
	return true
}

// scanStructure decodes worker w's stream into c.streams and validates it
// micro-op by micro-op: recognized opcode, task and data IDs in range. The
// words must also be the ones stf.Encode writes for what they decode to
// (canonical), so no word the decoded view hides — a stray or repeated
// task word — goes unchecked. It reports at most one RIO-V001 per stream
// (a corrupt stream cascades) and returns whether the stream is
// structurally sound.
func (c *certifier) scanStructure(w int) bool {
	words := c.cp.Streams[w]
	if !canonical(words) {
		c.addf(analyze.CodeVerifyStructure, analyze.NoID, analyze.NoID, stf.WorkerID(w),
			"worker %d stream is not in the encoding stf.Encode writes (a task word out of place)", w)
		return false
	}
	c.streams[w] = slices.AppendSeq(make([]stf.Instr, 0, len(words)), stf.Decode(words))
	for k, in := range c.streams[w] {
		switch {
		case in.Op > stf.OpTermRed:
			c.addf(analyze.CodeVerifyStructure, analyze.NoID, analyze.NoID, stf.WorkerID(w),
				"worker %d stream micro-op %d has unknown opcode %d", w, k, uint8(in.Op))
			return false
		case in.Task < 0 || int(in.Task) >= len(c.g.Tasks):
			c.addf(analyze.CodeVerifyStructure, stf.TaskID(in.Task), analyze.NoID, stf.WorkerID(w),
				"worker %d stream micro-op %d (%s) references task %d, outside [0,%d)", w, k, in.Op, in.Task, len(c.g.Tasks))
			return false
		case in.Op != stf.OpExec && (in.Data < 0 || int(in.Data) >= c.g.NumData):
			c.addf(analyze.CodeVerifyStructure, stf.TaskID(in.Task), in.Data, stf.WorkerID(w),
				"worker %d stream micro-op %d (%s) references data %d, outside [0,%d)", w, k, in.Op, in.Data, c.g.NumData)
			return false
		}
	}
	return true
}

// canonical reports whether words are exactly stf.Encode of what they
// decode to, checked here on its own terms rather than by re-encoding: a
// task word is followed by a data micro-op (not an exec, another task word
// or the end) and names another task than the open group's, and a data
// micro-op without one follows an open group.
func canonical(words []stf.Word) bool {
	open, opened := int32(0), false
	for k, w := range words {
		switch w.Op() {
		case stf.OpExec:
			open, opened = w.Arg(), true
		case stf.OpTask:
			if k+1 == len(words) || words[k+1].Op() == stf.OpExec || words[k+1].Op() == stf.OpTask ||
				(opened && w.Arg() == open) {
				return false
			}
			open, opened = w.Arg(), true
		default:
			if !opened {
				return false
			}
		}
	}
	return true
}

// scanGroups certifies coverage, ownership, order and access-set
// faithfulness of worker w's stream. A task's micro-ops are contiguous
// (Compile emits task by task), so the stream is parsed as a sequence of
// per-task groups.
func (c *certifier) scanGroups(w int) {
	stream := c.streams[w]
	wid := stf.WorkerID(w)
	lastTask := int32(-1)
	execSeq := int32(0)
	for i := 0; i < len(stream); {
		id := stream[i].Task
		j := i
		execs := 0
		for j < len(stream) && stream[j].Task == id {
			if stream[j].Op == stf.OpExec {
				execs++
			}
			j++
		}
		group := stream[i:j]
		i = j
		if id <= lastTask {
			c.addf(analyze.CodeVerifyOrder, stf.TaskID(id), analyze.NoID, wid,
				"worker %d's stream is out of program order: task %d's group appears after task %d's", w, id, lastTask)
		}
		lastTask = id
		t := &c.g.Tasks[id]
		if execs > 0 {
			execSeq++
			c.execCount[id] += execs
			c.execAt[id] = execPos{worker: wid, idx: execSeq}
			if execs > 1 {
				c.dupInGroup[id] = true
				c.addf(analyze.CodeVerifyCoverage, stf.TaskID(id), analyze.NoID, wid,
					"task %d executes %d times within worker %d's stream", id, execs, w)
			}
			if c.owners[id] != wid {
				c.addf(analyze.CodeVerifyOwnership, stf.TaskID(id), analyze.NoID, wid,
					"task %d executes on worker %d but the mapping assigns it to worker %d", id, w, c.owners[id])
			}
			c.checkGroupShape(wid, t, group, c.expectedOwned(t))
			continue
		}
		if c.owners[id] == wid {
			// The owner's group without an exec: coverage (below) flags
			// the missing execution; the remaining micro-ops are whatever
			// the corruption left behind, so shape-checking them against
			// either template would only add noise.
			continue
		}
		c.checkGroupShape(wid, t, group, c.expectedForeign(t))
	}
}

// checkGroupShape compares a task group against the sequence the graph
// dictates: same micro-ops in a different order is an order violation
// (RIO-V004), anything else is an access-set mismatch (RIO-V005).
func (c *certifier) checkGroupShape(w stf.WorkerID, t *stf.Task, got, want []stf.Instr) {
	if slices.Equal(got, want) {
		return
	}
	if missing, extra, permuted := multisetDiff(got, want); permuted {
		c.addf(analyze.CodeVerifyOrder, t.ID, analyze.NoID, w,
			"task %d's micro-ops on worker %d are the recorded set but out of sequence (acquires must precede exec, terminates must follow)", t.ID, w)
	} else {
		switch {
		case missing != nil:
			c.addf(analyze.CodeVerifyAccessSet, t.ID, missing.Data, w,
				"task %d's group on worker %d does not match its recorded accesses: missing %s on data %d", t.ID, w, missing.Op, missing.Data)
		case extra != nil:
			c.addf(analyze.CodeVerifyAccessSet, t.ID, extra.Data, w,
				"task %d's group on worker %d does not match its recorded accesses: unexpected %s on data %d", t.ID, w, extra.Op, extra.Data)
		default:
			c.addf(analyze.CodeVerifyAccessSet, t.ID, analyze.NoID, w,
				"task %d's group on worker %d does not match its recorded accesses", t.ID, w)
		}
	}
}

// checkCoverage requires every task to execute exactly once across all
// streams (RIO-V002).
func (c *certifier) checkCoverage() {
	for id := range c.g.Tasks {
		switch n := c.execCount[id]; {
		case n == 0:
			c.addf(analyze.CodeVerifyCoverage, stf.TaskID(id), analyze.NoID, c.owners[id],
				"task %d is never executed: no stream carries its exec (mapped to worker %d)", id, c.owners[id])
		case n > 1 && !c.dupInGroup[id]:
			// Per-group duplicates were already reported in scanGroups;
			// report here only cross-stream duplicates.
			c.addf(analyze.CodeVerifyCoverage, stf.TaskID(id), analyze.NoID, analyze.NoID,
				"task %d is executed %d times across the streams", id, n)
		}
	}
}

// multisetDiff compares two micro-op sequences as multisets. It returns
// the first micro-op present only in want (missing), the first present
// only in got (extra), and whether the two are permutations of each other.
func multisetDiff(got, want []stf.Instr) (missing, extra *stf.Instr, permuted bool) {
	counts := make(map[stf.Instr]int, len(want))
	for _, in := range want {
		counts[in]++
	}
	for i := range got {
		counts[got[i]]--
	}
	for i := range want {
		if counts[want[i]] > 0 {
			missing = &want[i]
			break
		}
	}
	for i := range got {
		if counts[got[i]] < 0 {
			extra = &got[i]
			break
		}
	}
	return missing, extra, missing == nil && extra == nil
}

// expectedOwned re-derives the exec-path micro-ops of a task from the
// graph and the program's elision claim: get_* waits in declared access
// order, the exec, then terminate_* publications in declared access order
// (Algorithm 1's execute path), accesses to claimed-elided data left out.
func (c *certifier) expectedOwned(t *stf.Task) []stf.Instr {
	out := make([]stf.Instr, 0, 2*len(t.Accesses)+1)
	id := int32(t.ID)
	for _, a := range t.Accesses {
		if !c.elided(a.Data) {
			out = append(out, stf.Instr{Op: wantGet(a.Mode), Data: a.Data, Task: id})
		}
	}
	out = append(out, stf.Instr{Op: stf.OpExec, Task: id})
	for _, a := range t.Accesses {
		if !c.elided(a.Data) {
			out = append(out, stf.Instr{Op: wantTerm(a.Mode), Data: a.Data, Task: id})
		}
	}
	return out
}

// expectedForeign re-derives the declare-path micro-ops of a foreign
// task, accesses to claimed-elided data left out.
func (c *certifier) expectedForeign(t *stf.Task) []stf.Instr {
	out := make([]stf.Instr, 0, len(t.Accesses))
	id := int32(t.ID)
	for _, a := range t.Accesses {
		if !c.elided(a.Data) {
			out = append(out, stf.Instr{Op: wantDeclare(a.Mode), Data: a.Data, Task: id})
		}
	}
	return out
}

func wantDeclare(m stf.AccessMode) stf.OpCode {
	switch {
	case m.Writes():
		return stf.OpDeclareWrite
	case m.Commutes():
		return stf.OpDeclareRed
	default:
		return stf.OpDeclareRead
	}
}

func wantGet(m stf.AccessMode) stf.OpCode {
	switch {
	case m.Writes():
		return stf.OpGetWrite
	case m.Commutes():
		return stf.OpGetRed
	default:
		return stf.OpGetRead
	}
}

func wantTerm(m stf.AccessMode) stf.OpCode {
	switch {
	case m.Writes():
		return stf.OpTermWrite
	case m.Commutes():
		return stf.OpTermRed
	default:
		return stf.OpTermRead
	}
}
