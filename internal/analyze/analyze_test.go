package analyze_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rio/internal/analyze"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// mustFind asserts the report carries a finding with the given code.
func mustFind(t *testing.T, rep *analyze.Report, code analyze.Code) {
	t.Helper()
	if !rep.Has(code) {
		t.Fatalf("want a %s finding, got: %+v", code, rep.Findings)
	}
}

// mustNotFind asserts the report carries no finding with the given code.
func mustNotFind(t *testing.T, rep *analyze.Report, code analyze.Code) {
	t.Helper()
	if rep.Has(code) {
		t.Fatalf("unexpected %s finding in: %+v", code, rep.Findings)
	}
}

func TestAccessLintUninitializedRead(t *testing.T) {
	g := stf.NewGraph("uninit", 2)
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 1, 0, 0, stf.W(0), stf.W(1))
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassAccess})
	mustFind(t, rep, analyze.CodeUninitRead)
	if !rep.Reject() {
		t.Fatal("uninitialized read must reject")
	}
}

func TestAccessLintPureInputsAreNotUninitialized(t *testing.T) {
	// Data 0 is only ever read: an externally initialized input.
	g := stf.NewGraph("input", 2)
	g.Add(0, 0, 0, 0, stf.R(0), stf.W(1))
	g.Add(0, 1, 0, 0, stf.R(0), stf.R(1))
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassAccess})
	mustNotFind(t, rep, analyze.CodeUninitRead)
	if rep.Reject() {
		t.Fatalf("clean flow rejected: %+v", rep.Findings)
	}
}

func TestAccessLintDeadWrite(t *testing.T) {
	g := stf.NewGraph("dead", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.W(0)) // kills task 0's write
	g.Add(0, 2, 0, 0, stf.R(0))
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassAccess})
	mustFind(t, rep, analyze.CodeDeadWrite)

	// The final write is the program's output, never dead; and a write
	// that was read is not dead.
	g2 := stf.NewGraph("alive", 1)
	g2.Add(0, 0, 0, 0, stf.W(0))
	g2.Add(0, 1, 0, 0, stf.R(0))
	g2.Add(0, 2, 0, 0, stf.W(0))
	rep2 := analyze.Graph(g2, analyze.Config{Passes: analyze.PassAccess})
	mustNotFind(t, rep2, analyze.CodeDeadWrite)
}

func TestAccessLintReadWriteIsNotADeadWrite(t *testing.T) {
	g := stf.NewGraph("rw", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.RW(0)) // reads task 0's value before writing
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassAccess})
	mustNotFind(t, rep, analyze.CodeDeadWrite)
}

func TestAccessLintUnusedDataAndAccumulate(t *testing.T) {
	g := stf.NewGraph("unused", 3)
	g.Add(0, 0, 0, 0, stf.RW(0))
	g.Add(0, 1, 0, 0, stf.Red(1))
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassAccess})
	mustFind(t, rep, analyze.CodeUnusedData)     // data 2 untouched
	mustFind(t, rep, analyze.CodeAccumulateRead) // RW/Red first access
	if rep.Reject() {
		t.Fatalf("info findings must not reject: %+v", rep.Findings)
	}
}

func TestStructuralFindingsFromProgram(t *testing.T) {
	rep, g := analyze.Program(1, func(s stf.Submitter) {
		s.Submit(nil, stf.R(7))           // out of range
		s.Submit(nil, stf.R(0), stf.W(0)) // duplicate data
	}, analyze.Config{Passes: analyze.PassAccess})
	mustFind(t, rep, analyze.CodeBadAccess)
	mustFind(t, rep, analyze.CodeDuplicateAccess)
	if g == nil {
		t.Fatal("sanitized graph missing")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("sanitized graph invalid: %v", err)
	}
}

// The structural scan's rows: each flow's access-structure findings (in
// report order) and the accesses the sanitized flow keeps, through both
// entry points. A valid access is a duplicate only of an earlier valid
// access of its task, so one after a rejected (mode None) access to the
// same datum is kept, and a list longer than 32 accesses, scanned through
// a set, finds the same duplicates as a short one scanned by its prefix.
func TestStructuralScanRows(t *testing.T) {
	long := func(extra ...stf.Access) []stf.Access {
		var as []stf.Access
		for d := 0; d < 40; d++ {
			as = append(as, stf.R(stf.DataID(d)))
		}
		return append(as, extra...)
	}
	none := stf.Access{Data: 3, Mode: stf.None}
	for _, row := range []struct {
		name     string
		accesses []stf.Access
		want     []string
		kept     int
	}{
		{"clean", []stf.Access{stf.R(0), stf.W(1)}, nil, 2},
		{"duplicate", []stf.Access{stf.R(0), stf.W(1), stf.W(0)},
			[]string{"RIO-A002 task 0 data 0: data 0 accessed more than once by the same task"}, 2},
		{"out of range twice", []stf.Access{stf.R(50), stf.R(50)},
			[]string{"RIO-A001 task 0 data 50: access to data 50 outside [0,40)", "RIO-A001 task 0 data 50: access to data 50 outside [0,40)"}, 0},
		{"valid after rejected", []stf.Access{none, stf.R(3)},
			[]string{"RIO-A001 task 0 data 3: access declares mode None"}, 1},
		{"valid after rejected, long", append([]stf.Access{none, stf.R(3)}, long()[4:]...),
			[]string{"RIO-A001 task 0 data 3: access declares mode None"}, 37},
		{"duplicate in a long task", long(stf.W(5), stf.R(39)),
			[]string{"RIO-A002 task 0 data 5: data 5 accessed more than once by the same task", "RIO-A002 task 0 data 39: data 39 accessed more than once by the same task"}, 40},
	} {
		t.Run(row.name, func(t *testing.T) {
			g := stf.NewGraph(row.name, 40)
			g.Add(0, 0, 0, 0, row.accesses...)
			fromGraph := analyze.Graph(g, analyze.Config{Passes: analyze.PassAccess})
			fromProgram, sanitized := analyze.Program(40, func(s stf.Submitter) { s.Submit(nil, row.accesses...) }, analyze.Config{Passes: analyze.PassAccess})
			for _, rep := range []*analyze.Report{fromGraph, fromProgram} {
				var got []string
				for _, f := range rep.Findings {
					if f.Code == analyze.CodeBadAccess || f.Code == analyze.CodeDuplicateAccess {
						got = append(got, strings.TrimSpace(strings.TrimPrefix(f.String(), "error")))
					}
				}
				if strings.Join(got, "\n") != strings.Join(row.want, "\n") {
					t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(row.want, "\n"))
				}
			}
			if err := sanitized.Validate(); err != nil || len(sanitized.Tasks[0].Accesses) != row.kept {
				t.Errorf("sanitized task keeps %d accesses (%v), want %d", len(sanitized.Tasks[0].Accesses), err, row.kept)
			}
		})
	}
}

func TestRecordPanicBecomesFinding(t *testing.T) {
	rep, _ := analyze.Program(1, func(s stf.Submitter) {
		s.Submit(nil, stf.W(0))
		panic("boom")
	}, analyze.Config{Passes: analyze.PassAll})
	mustFind(t, rep, analyze.CodeRecordPanic)
	if !rep.Reject() {
		t.Fatal("panicking program must reject")
	}
}

func TestMappingPassOutOfRange(t *testing.T) {
	g := graphs.Chain(4)
	rep := analyze.Graph(g, analyze.Config{
		Passes:  analyze.PassMapping,
		Workers: 2,
		Mapping: sched.Single(9),
		InOrder: true,
	})
	mustFind(t, rep, analyze.CodeBadMapping)
	if !rep.Reject() {
		t.Fatal("out-of-range mapping must reject")
	}
}

func TestMappingPassUnusedWorkerAndImbalance(t *testing.T) {
	g := graphs.Independent(16)
	rep := analyze.Graph(g, analyze.Config{
		Passes:  analyze.PassMapping,
		Workers: 4,
		Mapping: sched.Single(0),
		InOrder: false, // isolate the load diagnostics
	})
	mustFind(t, rep, analyze.CodeUnusedWorker)
	mustFind(t, rep, analyze.CodeImbalance)
}

func TestMappingPassSerializedWavefront(t *testing.T) {
	g := graphs.Wavefront(4, 4)
	rep := analyze.Graph(g, analyze.Config{
		Passes:  analyze.PassMapping,
		Workers: 4,
		Mapping: sched.Single(0),
		InOrder: true,
	})
	mustFind(t, rep, analyze.CodeSerialization)
	if !rep.Reject() {
		t.Fatal("fully serialized mapping must reject")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Code == analyze.CodeSerialization && strings.Contains(f.Message, "fully serialized") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want the fully-serialized detail, got %+v", rep.Findings)
	}
}

// Every mapping-induced serialization finding carries an informational
// escape hatch: the bound with stealing and the ranked victim list.
func TestMappingPassStealEscape(t *testing.T) {
	g := graphs.Wavefront(4, 4)
	rep := analyze.Graph(g, analyze.Config{
		Passes:  analyze.PassMapping,
		Workers: 4,
		Mapping: sched.Single(2),
		InOrder: true,
	})
	mustFind(t, rep, analyze.CodeStealEscape)
	var msg string
	for _, f := range rep.Findings {
		if f.Code == analyze.CodeStealEscape {
			if f.Severity != analyze.Info {
				t.Errorf("steal-escape severity = %v, want info (advice must not reject)", f.Severity)
			}
			msg = f.Message
		}
	}
	// The victim ranking for a fully skewed mapping is the hot worker.
	if !strings.Contains(msg, "Options.Steal") || !strings.Contains(msg, "Victims: [2]") {
		t.Fatalf("steal-escape message lacks the suggestion or ranked victims: %q", msg)
	}

	// A healthy mapping gets no steal advice.
	clean := analyze.Graph(g, analyze.Config{
		Passes:  analyze.PassMapping,
		Workers: 4,
		Mapping: sched.Cyclic(4),
		InOrder: true,
	})
	mustNotFind(t, clean, analyze.CodeStealEscape)
}

func TestMappingPassAcceptsParallelMapping(t *testing.T) {
	g := graphs.Wavefront(4, 4)
	rep := analyze.Graph(g, analyze.Config{
		Passes:  analyze.PassMapping,
		Workers: 4,
		Mapping: sched.Cyclic(4),
		InOrder: true,
	})
	mustNotFind(t, rep, analyze.CodeSerialization)
	mustNotFind(t, rep, analyze.CodeBadMapping)
}

func TestMappingPassSharedWorkerTasks(t *testing.T) {
	g := graphs.Independent(8)
	partial := sched.Partial(sched.Cyclic(2), func(id stf.TaskID) bool { return id%2 == 0 })
	rep := analyze.Graph(g, analyze.Config{
		Passes:  analyze.PassMapping,
		Workers: 2,
		Mapping: partial,
		InOrder: true,
	})
	mustNotFind(t, rep, analyze.CodeBadMapping)
}

func TestDeterminismPass(t *testing.T) {
	numData, prog := analyze.NondetDemo(1)
	rep, _ := analyze.Program(numData, prog, analyze.Config{Passes: analyze.PassDeterminism})
	mustFind(t, rep, analyze.CodeNondeterminism)
	if !rep.Reject() {
		t.Fatal("nondeterministic program must reject")
	}

	g := graphs.LU(3)
	rep2, _ := analyze.Program(g.NumData, stf.Replay(g, nil), analyze.Config{Passes: analyze.PassDeterminism})
	mustNotFind(t, rep2, analyze.CodeNondeterminism)
}

func TestDeterminismLocalizesFirstDivergence(t *testing.T) {
	_, prog := analyze.NondetDemo(1)
	rep, _ := analyze.Program(1, prog, analyze.Config{Passes: analyze.PassDeterminism})
	for _, f := range rep.Findings {
		if f.Code == analyze.CodeNondeterminism {
			if f.Task != 1 {
				t.Fatalf("divergence localized at task %d, want 1", f.Task)
			}
			return
		}
	}
	t.Fatal("no nondeterminism finding")
}

func TestSpecPassCertifiesSmallInstance(t *testing.T) {
	g := graphs.LURect(2, 2)
	rep := analyze.Graph(g, analyze.Config{
		Passes:  analyze.PassSpec,
		Workers: 2,
		Mapping: sched.Cyclic(2),
	})
	mustNotFind(t, rep, analyze.CodeSpecViolation)
	mustNotFind(t, rep, analyze.CodeSpecSkipped)
}

func TestSpecPassSkipsLargeInstances(t *testing.T) {
	g := graphs.GEMM(3)
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassSpec, Workers: 2, Mapping: sched.Cyclic(2)})
	mustFind(t, rep, analyze.CodeSpecSkipped)
	if rep.Reject() {
		t.Fatal("a skipped model check must not reject")
	}
}

func TestSpecPassSkipsReductions(t *testing.T) {
	g := stf.NewGraph("red", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.Red(0))
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassSpec, Workers: 2, Mapping: sched.Cyclic(2)})
	mustFind(t, rep, analyze.CodeSpecSkipped)
}

func TestWorkloadGraphAndParsers(t *testing.T) {
	for _, w := range []string{"lu", "cholesky", "gemm", "wavefront", "chain", "independent", "random", "tree", "forkjoin"} {
		g, err := analyze.WorkloadGraph(w, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", w, err)
		}
	}
	if _, err := analyze.WorkloadGraph("nope", 3, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := analyze.WorkloadGraph("lu", 0, 1); err == nil {
		t.Fatal("non-positive size accepted")
	}

	g := graphs.Chain(6)
	for _, spec := range []string{"cyclic", "block", "blockcyclic:2", "single:1", "owner2d"} {
		m, err := analyze.ParseMapping(spec, g, 2)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if _, err := analyze.ValidateInstance(g, 2, m); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	if _, err := analyze.ParseMapping("nope", g, 2); err == nil {
		t.Fatal("unknown mapping accepted")
	}
	if m, _ := analyze.ParseMapping("single:7", g, 2); m != nil {
		if _, err := analyze.ValidateInstance(g, 2, m); err == nil {
			t.Fatal("out-of-range mapping validated")
		}
	}
}

func TestReportOutputs(t *testing.T) {
	g := stf.NewGraph("out", 1)
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 1, 0, 0, stf.W(0))
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassAccess})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded analyze.Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if !decoded.Has(analyze.CodeUninitRead) {
		t.Fatalf("decoded report lost findings: %+v", decoded)
	}

	buf.Reset()
	if err := rep.WriteText(&buf, analyze.Info); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), string(analyze.CodeUninitRead)) {
		t.Fatalf("text report missing code: %q", buf.String())
	}
}

func TestPreflightErrorMessage(t *testing.T) {
	g := stf.NewGraph("err", 1)
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 1, 0, 0, stf.W(0))
	rep := analyze.Graph(g, analyze.Config{Passes: analyze.PassAccess})
	err := &analyze.PreflightError{Report: rep}
	if !strings.Contains(err.Error(), string(analyze.CodeUninitRead)) {
		t.Fatalf("error does not name the finding: %s", err)
	}
}
