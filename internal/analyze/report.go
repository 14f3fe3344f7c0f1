package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"rio/internal/stf"
)

// Severity grades a finding.
type Severity int

const (
	// Info findings are observations that never reject a program.
	Info Severity = iota
	// Warning findings indicate likely defects (lost parallelism, dead
	// code, reads of unwritten data); preflight rejects them.
	Warning
	// Error findings are programs the engines cannot run correctly
	// (malformed accesses, nondeterministic replays, broken mappings).
	Error
)

// String names the severity as printed in reports.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON encodes the severity by name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sev, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// ParseSeverity parses a severity name.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "info":
		return Info, nil
	case "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("analyze: unknown severity %q (want info|warning|error)", name)
}

// Code identifies a class of finding. Codes are stable across releases so
// reports can be filtered mechanically.
type Code string

// Access-lint finding codes (RIO-Axxx).
const (
	// CodeBadAccess: a task declares an access with an out-of-range data
	// ID or a None mode.
	CodeBadAccess Code = "RIO-A001"
	// CodeDuplicateAccess: a task declares two accesses to the same data.
	CodeDuplicateAccess Code = "RIO-A002"
	// CodeBadTaskID: the program submitted recorded tasks with
	// non-monotonic IDs.
	CodeBadTaskID Code = "RIO-A003"
	// CodePrunedFlow: the program submitted recorded tasks with ID gaps
	// (a pruned flow — analyze the unpruned program).
	CodePrunedFlow Code = "RIO-A004"
	// CodeRecordPanic: the program panicked while being recorded.
	CodeRecordPanic Code = "RIO-A005"
	// CodeUninitRead: a task reads a data object before any task wrote
	// it, and some later task does write it — the flow treats the data
	// as produced but consumes it first.
	CodeUninitRead Code = "RIO-A010"
	// CodeAccumulateRead: the first access to a data object is a
	// read-modify (RW or Reduction); the data is assumed externally
	// initialized. Informational.
	CodeAccumulateRead Code = "RIO-A011"
	// CodeDeadWrite: a write is overwritten by a later write with no
	// intervening read — the first write's value is never observed.
	CodeDeadWrite Code = "RIO-A012"
	// CodeUnusedData: a registered data object is never accessed by any
	// task.
	CodeUnusedData Code = "RIO-A013"
)

// Mapping-analysis finding codes (RIO-Mxxx).
const (
	// CodeBadMapping: the mapping sends a task to a worker outside
	// [0, Workers).
	CodeBadMapping Code = "RIO-M001"
	// CodeUnusedWorker: a worker owns no task.
	CodeUnusedWorker Code = "RIO-M002"
	// CodeImbalance: the per-worker load is badly skewed.
	CodeImbalance Code = "RIO-M003"
	// CodeSerialization: under per-worker in-order execution, the mapping
	// inflates the achievable makespan well beyond both the dependency
	// critical path and the balanced-load bound (mapping-induced
	// serialization, specific to the RIO model).
	CodeSerialization Code = "RIO-M004"
	// CodeStealEscape: the mapping-induced serialization above is
	// escapable by dependency-safe work stealing — the makespan bound
	// with Options.Steal falls back to max(critical path, balanced load).
	// Informational companion to CodeSerialization, carrying the two
	// bounds and the ranked victim list (sched.RankVictims) to put in
	// StealPolicy.Victims.
	CodeStealEscape Code = "RIO-M010"
)

// Determinism-lint and spec-conformance finding codes.
const (
	// CodeNondeterminism: independent record-mode replays of the program
	// produced different task flows.
	CodeNondeterminism Code = "RIO-D001"
	// CodeSpecViolation: the bounded model check of this instance found a
	// property violation (data race, deadlock, or a RIO step that is not
	// a legal STF step).
	CodeSpecViolation Code = "RIO-S001"
	// CodeSpecSkipped: the instance exceeds the bounded-exploration
	// limits (or uses reductions) and was not model-checked.
	CodeSpecSkipped Code = "RIO-S002"
)

// Translation-validation finding codes (RIO-Vxxx), produced by the
// internal/verify certifier over (Graph, Mapping, CompiledProgram)
// triples. All are Error severity: each one means a compiled stream is
// not a faithful lowering of the recorded flow.
const (
	// CodeVerifyStructure: a stream is structurally corrupt — unknown
	// opcode, out-of-range task or data ID, worker count or data count
	// disagreeing with the graph, or an unusable mapping.
	CodeVerifyStructure Code = "RIO-V001"
	// CodeVerifyCoverage: a task is never executed, or is executed more
	// than once.
	CodeVerifyCoverage Code = "RIO-V002"
	// CodeVerifyOwnership: a task executes on a worker other than the one
	// the mapping assigns it to.
	CodeVerifyOwnership Code = "RIO-V003"
	// CodeVerifyOrder: a stream violates program order — task groups out
	// of order or split, or a task's acquire/exec/terminate micro-ops out
	// of sequence within its group.
	CodeVerifyOrder Code = "RIO-V004"
	// CodeVerifyAccessSet: a task's micro-ops do not match its recorded
	// access list — a dropped, extra, retargeted or mode-changed
	// instruction.
	CodeVerifyAccessSet Code = "RIO-V005"
	// CodeVerifyElision: an elided declare is not dominated by a later
	// surviving op establishing the same version — §3.5 pruning dropped
	// a real dependency, so a wait would admit a stale version.
	CodeVerifyElision Code = "RIO-V006"
	// RIO-V007 (an inconsistent checkpoint resume) is retired with the
	// fault-tolerance layer, like the RIO-Rxxx retry codes; none of them
	// is reused.
	// CodeVerifyHappensBefore: a conflicting access pair (W→W, W→R, R→W,
	// or a reduction fence) is not ordered by the certified
	// happens-before relation of the streams' waits.
	CodeVerifyHappensBefore Code = "RIO-V008"
	// CodeVerifyContended: the program claims a data object elided (no
	// micro-ops in any stream) that is contended — tasks of different
	// workers conflict on it, so only the protocol could order them.
	CodeVerifyContended Code = "RIO-V009"
)

// NoID marks the Task/Data/Worker fields of findings that are not tied to
// a specific task, data object or worker.
const NoID = -1

// Finding is one diagnostic produced by a pass.
type Finding struct {
	Code     Code         `json:"code"`
	Severity Severity     `json:"severity"`
	Task     stf.TaskID   `json:"task"`
	Data     stf.DataID   `json:"data"`
	Worker   stf.WorkerID `json:"worker"`
	Message  string       `json:"message"`
}

// String renders the finding as one report line.
func (f Finding) String() string {
	s := fmt.Sprintf("%-7s %s", f.Severity, f.Code)
	if f.Task != NoID {
		s += fmt.Sprintf(" task %d", f.Task)
	}
	if f.Data != NoID {
		s += fmt.Sprintf(" data %d", f.Data)
	}
	if f.Worker != NoID {
		s += fmt.Sprintf(" worker %d", f.Worker)
	}
	return s + ": " + f.Message
}

// Report is the outcome of an analysis run.
type Report struct {
	// NumData and Tasks describe the analyzed instance.
	NumData int `json:"num_data"`
	Tasks   int `json:"tasks"`
	// Findings is sorted by severity (most severe first), then task.
	Findings []Finding `json:"findings"`
	// Errors, Warnings and Infos count findings per severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

func (r *Report) add(fs ...Finding) { r.Findings = append(r.Findings, fs...) }

// Add appends findings produced outside this package (e.g. by the
// internal/verify certifier) to the report. Call Finish afterwards to
// restore sort order and severity tallies.
func (r *Report) Add(fs ...Finding) { r.add(fs...) }

// Finish sorts the findings and recomputes the severity tallies after
// external findings were merged with Add. It returns the report.
func (r *Report) Finish() *Report { return r.finish() }

func (r *Report) addf(code Code, sev Severity, task stf.TaskID, data stf.DataID, worker stf.WorkerID, format string, args ...any) {
	r.add(Finding{Code: code, Severity: sev, Task: task, Data: data, Worker: worker,
		Message: fmt.Sprintf(format, args...)})
}

// finish sorts the findings and recomputes the severity tallies.
func (r *Report) finish() *Report {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		if r.Findings[i].Severity != r.Findings[j].Severity {
			return r.Findings[i].Severity > r.Findings[j].Severity
		}
		return r.Findings[i].Task < r.Findings[j].Task
	})
	r.Errors, r.Warnings, r.Infos = 0, 0, 0
	for _, f := range r.Findings {
		switch f.Severity {
		case Error:
			r.Errors++
		case Warning:
			r.Warnings++
		default:
			r.Infos++
		}
	}
	return r
}

// Max returns the highest severity present, or Info-1 when the report is
// clean.
func (r *Report) Max() Severity {
	max := Info - 1
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// CountAtLeast returns the number of findings at or above sev.
func (r *Report) CountAtLeast(sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity >= sev {
			n++
		}
	}
	return n
}

// Reject reports whether preflight must reject the program: any finding
// of Warning or Error severity.
func (r *Report) Reject() bool { return r.Max() >= Warning }

// Has reports whether any finding carries the given code.
func (r *Report) Has(code Code) bool {
	for _, f := range r.Findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

// WriteJSON writes the machine-readable form of the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the human form of the report, omitting findings below
// minSev.
func (r *Report) WriteText(w io.Writer, minSev Severity) error {
	shown := 0
	for _, f := range r.Findings {
		if f.Severity < minSev {
			continue
		}
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
		shown++
	}
	_, err := fmt.Fprintf(w, "%d task(s), %d data object(s): %d error(s), %d warning(s), %d info (%d shown)\n",
		r.Tasks, r.NumData, r.Errors, r.Warnings, r.Infos, shown)
	return err
}

// PreflightError is returned by rio.Options.Preflight when the analyzer
// rejects a program before any worker starts. Use errors.As to retrieve
// the full Report.
type PreflightError struct {
	Report *Report
}

// Error summarizes the rejection with the most severe finding.
func (e *PreflightError) Error() string {
	r := e.Report
	n := r.CountAtLeast(Warning)
	if len(r.Findings) == 0 {
		return "analyze: preflight rejected the program"
	}
	return fmt.Sprintf("analyze: preflight rejected the program: %d finding(s) at warning or above, first: %s",
		n, r.Findings[0])
}
