package analyze

import (
	"fmt"

	"rio/internal/stf"
)

// capPerCode bounds how many findings of one repetitive class are
// reported individually; beyond it a single summary finding is emitted so
// a pathological program cannot drown the report.
const capPerCode = 16

// recording is one record-mode replay of a program, tolerant of
// malformed flows: instead of aborting on the first structural defect
// (as stf.Record does), every defect becomes a finding and the raw flow
// is kept for the determinism diff.
type recording struct {
	g        *stf.Graph
	findings []Finding
	panicked bool

	badAccess int
	dupAccess int
	dups      dupScan
}

// record replays prog once in record mode. A panic in the program is
// recovered and reported as a finding (the engines would abort the run
// the same way).
func record(numData int, prog stf.Program) *recording {
	rec := &recording{g: stf.NewGraph("recorded", numData)}
	func() {
		defer func() {
			if r := recover(); r != nil {
				rec.panicked = true
				rec.findings = append(rec.findings, Finding{
					Code: CodeRecordPanic, Severity: Error,
					Task: stf.TaskID(len(rec.g.Tasks)), Data: NoID, Worker: NoID,
					Message: fmt.Sprintf("program panicked in record mode: %v", r),
				})
			}
		}()
		prog(rec)
	}()
	rec.summarize()
	return rec
}

func (r *recording) summarize() {
	if extra := r.badAccess - capPerCode; extra > 0 {
		r.findings = append(r.findings, Finding{Code: CodeBadAccess, Severity: Error,
			Task: NoID, Data: NoID, Worker: NoID,
			Message: fmt.Sprintf("%d more malformed access(es) not listed", extra)})
	}
	if extra := r.dupAccess - capPerCode; extra > 0 {
		r.findings = append(r.findings, Finding{Code: CodeDuplicateAccess, Severity: Error,
			Task: NoID, Data: NoID, Worker: NoID,
			Message: fmt.Sprintf("%d more duplicate access(es) not listed", extra)})
	}
}

func (r *recording) addf(code Code, sev Severity, task stf.TaskID, data stf.DataID, format string, args ...any) {
	r.findings = append(r.findings, Finding{Code: code, Severity: sev,
		Task: task, Data: data, Worker: NoID, Message: fmt.Sprintf(format, args...)})
}

// scanAccesses emits structural findings for one task's access list.
func (r *recording) scanAccesses(id stf.TaskID, accesses []stf.Access) {
	r.dups.start(accesses)
	for i, a := range accesses {
		switch {
		case a.Data < 0 || int(a.Data) >= r.g.NumData:
			r.badAccess++
			if r.badAccess <= capPerCode {
				r.addf(CodeBadAccess, Error, id, a.Data,
					"access to data %d outside [0,%d)", a.Data, r.g.NumData)
			}
		case a.Mode == stf.None:
			r.badAccess++
			if r.badAccess <= capPerCode {
				r.addf(CodeBadAccess, Error, id, a.Data, "access declares mode None")
			}
		case r.dups.repeated(accesses, i):
			r.dupAccess++
			if r.dupAccess <= capPerCode {
				r.addf(CodeDuplicateAccess, Error, id, a.Data,
					"data %d accessed more than once by the same task", a.Data)
			}
		}
	}
}

// dupScanMax is the longest access list whose duplicates dupScan finds by
// scanning the list's prefix, as stf.checkAccesses does.
const dupScanMax = 32

// dupScan finds the accesses of one task that repeat the datum of an
// earlier valid access (in range, mode not None) of the same task: a
// short list by its prefix, which costs no map per task, a longer one
// through a set, so that a hostile list stays linear.
type dupScan struct {
	seen map[stf.DataID]bool // the long list's valid data so far
}

// start begins the scan of accesses.
func (d *dupScan) start(accesses []stf.Access) {
	if len(accesses) <= dupScanMax {
		return
	}
	if d.seen == nil {
		d.seen = make(map[stf.DataID]bool, len(accesses))
	}
	clear(d.seen)
}

// repeated reports whether accesses[i], a valid access, repeats the datum
// of a valid access before it. The accesses of a long list must be asked
// about in order, each valid one once.
func (d *dupScan) repeated(accesses []stf.Access, i int) bool {
	a := accesses[i]
	if len(accesses) > dupScanMax {
		if d.seen[a.Data] {
			return true
		}
		d.seen[a.Data] = true
		return false
	}
	for _, prev := range accesses[:i] {
		// a.Data is in range, so a prev of the same datum is too: it
		// counts unless its mode was rejected.
		if prev.Data == a.Data && prev.Mode != stf.None {
			return true
		}
	}
	return false
}

// Submit implements stf.Submitter: the closure body is not executed.
func (r *recording) Submit(fn stf.TaskFunc, accesses ...stf.Access) stf.TaskID {
	id := r.g.Add(stf.RecordedClosure, 0, 0, 0, accesses...)
	r.scanAccesses(id, accesses)
	return id
}

// SubmitTask implements stf.Submitter for recorded tasks. Unlike
// stf.Record, non-monotonic IDs and gaps are findings, not hard errors;
// the task is re-recorded at the next position either way so downstream
// passes still see the whole flow.
func (r *recording) SubmitTask(t *stf.Task, k stf.Kernel) stf.TaskID {
	want := stf.TaskID(len(r.g.Tasks))
	switch {
	case t.ID < want:
		r.addf(CodeBadTaskID, Error, want, NoID,
			"recorded task resubmits ID %d at position %d (IDs must be monotonic)", t.ID, want)
	case t.ID > want:
		r.addf(CodePrunedFlow, Warning, want, NoID,
			"ID gap before task %d at position %d: the flow looks pruned; analyze the unpruned program", t.ID, want)
	}
	id := r.g.Add(t.Kernel, t.I, t.J, t.K, t.Accesses...)
	r.scanAccesses(id, t.Accesses)
	return t.ID
}

// Worker implements stf.Submitter; like stf.Record, the recorder presents
// itself as the master so worker-pruned programs record the full flow.
func (r *recording) Worker() stf.WorkerID { return stf.MasterWorker }

// NumWorkers implements stf.Submitter.
func (r *recording) NumWorkers() int { return 1 }

// structuralScan is the Graph-entry-point counterpart of the recorder's
// inline scanning: it scans g in place and reports whether g is
// structurally clean, i.e. whether the graph-level passes may read g
// itself instead of a sanitized copy.
func structuralScan(rep *Report, g *stf.Graph) (clean bool) {
	rec := &recording{g: g}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		want := stf.TaskID(i)
		if t.ID != want {
			rec.addf(CodeBadTaskID, Error, want, NoID,
				"task at position %d carries ID %d", want, t.ID)
		}
		rec.scanAccesses(want, t.Accesses)
	}
	rec.summarize()
	rep.add(rec.findings...)
	return len(rec.findings) == 0
}

// sanitizeGraph returns a structurally valid copy of g: out-of-range and
// None accesses are dropped, duplicate accesses keep the first
// declaration, tasks are renumbered by position (the matching findings
// come from the recorder / structuralScan). The copy passes
// stf.Graph.Validate and is what the graph-level passes analyze.
func sanitizeGraph(g *stf.Graph) *stf.Graph {
	out := stf.NewGraph(g.Name, g.NumData)
	var dups dupScan
	for i := range g.Tasks {
		t := &g.Tasks[i]
		dups.start(t.Accesses)
		accesses := make([]stf.Access, 0, len(t.Accesses))
		for j, a := range t.Accesses {
			if a.Data < 0 || int(a.Data) >= g.NumData || a.Mode == stf.None || dups.repeated(t.Accesses, j) {
				continue
			}
			accesses = append(accesses, a)
		}
		out.Add(t.Kernel, t.I, t.J, t.K, accesses...)
	}
	return out
}
