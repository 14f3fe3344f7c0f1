package analyze

import (
	"fmt"
	"slices"

	"rio/internal/stf"
)

// accessLint is the data-flow hygiene lint over a sanitized flow, fed
// every access in flow order by the preflight walk (walk):
//
//   - CodeUninitRead (warning): a ReadOnly access to a data object no
//     task has written yet, while some later task does write it — the
//     flow treats the object as produced data but consumes it first.
//     Objects that are only ever read are assumed externally initialized
//     inputs and not reported.
//   - CodeAccumulateRead (info): the first access to an object is a
//     read-modify (RW or Reduction) — the common accumulate-into idiom;
//     correctness depends on external initialization.
//   - CodeDeadWrite (warning): a WriteOnly access overwrites a value no
//     task ever read. The final write to an object is never dead (it is
//     the program's output).
//   - CodeUnusedData (info): a registered object no task touches.
//
// Uninitialized and accumulate reads are reported once per data object
// (at the first offending task); dead writes are reported per overwrite.
// Whether a first read is uninitialized depends on a later write, so
// such reads are held until the walk has seen every access, and finish
// lists them where the lint's findings begin, in flow order.
type accessLint struct {
	rep        *Report
	start      int // len(rep.Findings) when the lint began
	data       []lintDatum
	firstReads []firstRead // ReadOnly first accesses of unwritten data, in flow order

	deadWrites, accumReads int
}

// lintDatum is the lint's state of one data object.
type lintDatum struct {
	touched      bool
	written      bool       // some write already happened
	reported     bool       // first read already classified
	pendingWrite stf.TaskID // last unread write, NoTask if none
}

// firstRead is a read of data no task has written yet: an uninitialized
// read if a later task writes the datum.
type firstRead struct {
	task stf.TaskID
	data stf.DataID
}

func newAccessLint(rep *Report, numData int) *accessLint {
	l := &accessLint{rep: rep, start: len(rep.Findings), data: make([]lintDatum, numData)}
	for d := range l.data {
		l.data[d].pendingWrite = stf.NoTask
	}
	return l
}

// access lints task t's access a; the walk calls it for every access, in
// flow order.
func (l *accessLint) access(t stf.TaskID, a stf.Access) {
	st := &l.data[a.Data]
	st.touched = true
	reads := a.Mode.Reads() || a.Mode.Commutes()
	writes := a.Mode.Writes() || a.Mode.Commutes()

	if reads && !st.written && !st.reported {
		st.reported = true
		if a.Mode == stf.ReadOnly {
			l.firstReads = append(l.firstReads, firstRead{t, a.Data})
		} else {
			l.accumReads++
			if l.accumReads <= capPerCode {
				l.rep.addf(CodeAccumulateRead, Info, t, a.Data, NoID,
					"first access to data %d is a read-modify (%s): assumed externally initialized", a.Data, a.Mode)
			}
		}
	}

	if a.Mode == stf.WriteOnly && st.pendingWrite != stf.NoTask {
		l.deadWrites++
		if l.deadWrites <= capPerCode {
			l.rep.addf(CodeDeadWrite, Warning, st.pendingWrite, a.Data, NoID,
				"write to data %d by task %d is dead: overwritten by task %d with no read in between",
				a.Data, st.pendingWrite, t)
		}
	}

	if reads {
		st.pendingWrite = stf.NoTask
	}
	if writes {
		st.written = true
		st.pendingWrite = t
	}
}

// finish reports what only the whole flow shows: which first reads some
// later task's write made uninitialized, the counts beyond the listing
// cap, and the data no task touched.
func (l *accessLint) finish() {
	var uninit []Finding
	uninitReads := 0
	for _, r := range l.firstReads {
		if !l.data[r.data].written {
			continue // a pure input
		}
		uninitReads++
		if uninitReads <= capPerCode {
			uninit = append(uninit, Finding{Code: CodeUninitRead, Severity: Warning, Task: r.task, Data: r.data, Worker: NoID,
				Message: fmt.Sprintf("read of data %d before any task wrote it (first write comes later in the flow)", r.data)})
		}
	}
	l.rep.Findings = slices.Insert(l.rep.Findings, l.start, uninit...)

	if extra := l.deadWrites - capPerCode; extra > 0 {
		l.rep.addf(CodeDeadWrite, Warning, NoID, NoID, NoID, "%d more dead write(s) not listed", extra)
	}
	if extra := uninitReads - capPerCode; extra > 0 {
		l.rep.addf(CodeUninitRead, Warning, NoID, NoID, NoID, "%d more uninitialized read(s) not listed", extra)
	}
	if extra := l.accumReads - capPerCode; extra > 0 {
		l.rep.addf(CodeAccumulateRead, Info, NoID, NoID, NoID, "%d more read-modify first access(es) not listed", extra)
	}

	unused := 0
	for d := range l.data {
		if !l.data[d].touched {
			unused++
			if unused <= capPerCode {
				l.rep.addf(CodeUnusedData, Info, NoID, stf.DataID(d), NoID,
					"data %d is registered but never accessed", d)
			}
		}
	}
	if extra := unused - capPerCode; extra > 0 {
		l.rep.addf(CodeUnusedData, Info, NoID, NoID, NoID, "%d more unused data object(s) not listed", extra)
	}
}
