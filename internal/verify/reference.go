package verify

import "rio/internal/stf"

// The reference walk replays the task flow once, in program order,
// recording for every access of every task the state of its data object just before the task
// — the same four quantities the protocol's local counters track
// (core/data.go localState), plus the identities behind the counts:
// which terminations the access's get_* wait requires, and which earlier
// accesses conflict with it. The counter snapshot drives the pruning
// soundness pass (simulate.go); the identity lists drive the
// happens-before pass (hb.go).

// preState is the flow-implied state of one data object immediately
// before one access of one task.
type preState struct {
	// lastWrite is the TaskID of the last surviving write (stf.NoTask
	// before any), nbReads/nbReds count reads/reductions since it, and
	// nbRedsBeforeRun is the reduction count at the start of the current
	// reduction run — exactly the localState quadruple a faithful stream
	// must have accumulated when the access's wait runs.
	lastWrite                        int64
	nbReads, nbReds, nbRedsBeforeRun int64
	// waitsOn lists the tasks whose terminations the access's get_* wait
	// requires: the happens-before edges the wait certifies.
	waitsOn []stf.TaskID
	// conflicts lists the frontier of earlier conflicting accesses (last
	// writer, readers/reductions since — per the access's mode, with
	// red-red pairs exempt). Transitivity of the vector-clock order
	// extends the frontier check to all conflicting pairs.
	conflicts []stf.TaskID
}

// buildReference computes c.pre over the flow.
func (c *certifier) buildReference() {
	type refCell struct {
		lastWrite stf.TaskID
		readers   []stf.TaskID
		reds      []stf.TaskID
		// runStart is the index into reds where the current (open)
		// reduction run begins; reds[:runStart] are earlier, closed runs.
		runStart int
	}
	cells := make([]refCell, c.g.NumData)
	for i := range cells {
		cells[i].lastWrite = stf.NoTask
	}
	c.pre = make([][]preState, len(c.g.Tasks))
	for i := range c.g.Tasks {
		t := &c.g.Tasks[i]
		ps := make([]preState, len(t.Accesses))
		for ai, a := range t.Accesses {
			cell := &cells[a.Data]
			p := preState{
				lastWrite:       int64(cell.lastWrite),
				nbReads:         int64(len(cell.readers)),
				nbReds:          int64(len(cell.reds)),
				nbRedsBeforeRun: int64(cell.runStart),
			}
			switch {
			case a.Mode.Writes():
				// get_write waits for the last write, every read and
				// every reduction since it; all of those conflict.
				p.waitsOn = concatIDs(cell.lastWrite, cell.readers, cell.reds)
				p.conflicts = p.waitsOn
			case a.Mode.Commutes():
				// get_red waits for the last write, the reads since it
				// and the reductions of earlier runs (its own run
				// commutes). Conflicts are write and reads only: red-red
				// pairs are exempt by commutativity.
				p.waitsOn = concatIDs(cell.lastWrite, cell.readers, cell.reds[:cell.runStart])
				p.conflicts = concatIDs(cell.lastWrite, cell.readers, nil)
			default:
				// get_read waits for the last write and every reduction
				// since it; both conflict (reads commute with reads).
				p.waitsOn = concatIDs(cell.lastWrite, cell.reds, nil)
				p.conflicts = p.waitsOn
			}
			ps[ai] = p
		}
		for _, a := range t.Accesses {
			cell := &cells[a.Data]
			switch {
			case a.Mode.Writes():
				cell.lastWrite = t.ID
				cell.readers = nil
				cell.reds = nil
				cell.runStart = 0
			case a.Mode.Commutes():
				cell.reds = append(cell.reds, t.ID)
			default:
				// A read closes any open reduction run.
				cell.runStart = len(cell.reds)
				cell.readers = append(cell.readers, t.ID)
			}
		}
		c.pre[i] = ps
	}
}

// concatIDs copies (lastWrite if present) + a + b into a fresh slice; the
// source slices keep growing after the snapshot.
func concatIDs(lastWrite stf.TaskID, a, b []stf.TaskID) []stf.TaskID {
	n := len(a) + len(b)
	if lastWrite != stf.NoTask {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]stf.TaskID, 0, n)
	if lastWrite != stf.NoTask {
		out = append(out, lastWrite)
	}
	out = append(out, a...)
	return append(out, b...)
}

// accessIndex finds the declared access of t on data d, or -1.
func accessIndex(t *stf.Task, d stf.DataID) int {
	for i := range t.Accesses {
		if t.Accesses[i].Data == d {
			return i
		}
	}
	return -1
}
