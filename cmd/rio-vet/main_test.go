package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rio/internal/analyze"
	"rio/internal/stf"
)

// writeGraph serializes a graph into a temp file and returns its path.
func writeGraph(t *testing.T, g *stf.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flow.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// vetJSON runs rio-vet with -json and decodes the report.
func vetJSON(t *testing.T, args ...string) (*analyze.Report, bool) {
	t.Helper()
	var buf bytes.Buffer
	reject, err := run(append(args, "-json"), &buf)
	if err != nil {
		t.Fatalf("rio-vet %v: %v", args, err)
	}
	var rep analyze.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, buf.String())
	}
	return &rep, reject
}

// The five acceptance defects, each detected with a distinct code.

func TestVetDetectsUninitializedRead(t *testing.T) {
	g := stf.NewGraph("uninit", 1)
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 1, 0, 0, stf.W(0))
	rep, reject := vetJSON(t, "-graph", writeGraph(t, g))
	if !rep.Has(analyze.CodeUninitRead) || !reject {
		t.Fatalf("want %s + reject, got reject=%v findings=%+v", analyze.CodeUninitRead, reject, rep.Findings)
	}
}

func TestVetDetectsDeadWrite(t *testing.T) {
	g := stf.NewGraph("dead", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.W(0))
	g.Add(0, 2, 0, 0, stf.R(0))
	rep, reject := vetJSON(t, "-graph", writeGraph(t, g))
	if !rep.Has(analyze.CodeDeadWrite) || !reject {
		t.Fatalf("want %s + reject, got reject=%v findings=%+v", analyze.CodeDeadWrite, reject, rep.Findings)
	}
}

func TestVetDetectsNondeterministicProgram(t *testing.T) {
	rep, reject := vetJSON(t, "-workload", "nondet")
	if !rep.Has(analyze.CodeNondeterminism) || !reject {
		t.Fatalf("want %s + reject, got reject=%v findings=%+v", analyze.CodeNondeterminism, reject, rep.Findings)
	}
}

func TestVetDetectsOutOfRangeMapping(t *testing.T) {
	rep, reject := vetJSON(t, "-workload", "chain", "-size", "4", "-workers", "2", "-mapping", "single:9")
	if !rep.Has(analyze.CodeBadMapping) || !reject {
		t.Fatalf("want %s + reject, got reject=%v findings=%+v", analyze.CodeBadMapping, reject, rep.Findings)
	}
}

func TestVetDetectsSerializedWavefrontMapping(t *testing.T) {
	rep, reject := vetJSON(t, "-workload", "wavefront", "-size", "4", "-workers", "4", "-mapping", "single:0")
	if !rep.Has(analyze.CodeSerialization) || !reject {
		t.Fatalf("want %s + reject, got reject=%v findings=%+v", analyze.CodeSerialization, reject, rep.Findings)
	}
}

func TestVetAcceptsCleanWorkloads(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "lu", "-size", "3", "-workers", "2"},
		{"-workload", "gemm", "-size", "2", "-workers", "4"},
		{"-workload", "wavefront", "-size", "4", "-workers", "4"},
		{"-workload", "cholesky", "-size", "3", "-workers", "3", "-mapping", "blockcyclic:2"},
	} {
		rep, reject := vetJSON(t, args...)
		if reject {
			t.Errorf("rio-vet %v rejected a clean workload: %+v", args, rep.Findings)
		}
	}
}

func TestVetVerifyCertifiesCleanWorkloads(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "lu", "-size", "3", "-workers", "2", "-verify"},
		{"-workload", "gemm", "-size", "2", "-workers", "4", "-verify"},
		{"-workload", "cholesky", "-size", "3", "-workers", "3", "-verify", "-mapping", "blockcyclic:2"},
	} {
		rep, reject := vetJSON(t, args...)
		if reject {
			t.Errorf("rio-vet %v rejected a certifiable workload: %+v", args, rep.Findings)
		}
		for _, f := range rep.Findings {
			if strings.HasPrefix(string(f.Code), "RIO-V") {
				t.Errorf("rio-vet %v: unexpected certification finding %s", args, f)
			}
		}
	}
	// A flow with pre-existing (non-certification) findings still gets a
	// clean certificate: -verify adds no RIO-V findings of its own.
	rep, _ := vetJSON(t, "-workload", "random", "-size", "12", "-workers", "3", "-verify")
	for _, f := range rep.Findings {
		if strings.HasPrefix(string(f.Code), "RIO-V") {
			t.Errorf("random workload: unexpected certification finding %s", f)
		}
	}
}

func TestVetVerifyRequiresGraph(t *testing.T) {
	if _, err := run([]string{"-workload", "nondet", "-verify"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-verify on a graphless workload: want usage error")
	}
}

func TestVetHumanReportAndFailOn(t *testing.T) {
	var buf bytes.Buffer
	reject, err := run([]string{"-workload", "lu", "-size", "3", "-workers", "2"}, &buf)
	if err != nil || reject {
		t.Fatalf("clean run: reject=%v err=%v", reject, err)
	}
	if !strings.Contains(buf.String(), "error(s)") {
		t.Fatalf("missing summary line: %q", buf.String())
	}

	// -fail-on info turns the informational findings into a rejection.
	buf.Reset()
	reject, err = run([]string{"-workload", "lu", "-size", "3", "-workers", "2", "-fail-on", "info"}, &buf)
	if err != nil || !reject {
		t.Fatalf("-fail-on info: reject=%v err=%v", reject, err)
	}
}

// -emit prints the flow instead of vetting it: never a rejection, and the
// output is the named form.
func TestVetEmit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-workload", "lu", "-size", "4", "-workers", "4", "-mapping", "owner", "-emit", "stats"},
			[]string{"workload   lu", "tasks", "depth", "flow id", "load histogram", "pruning", "elision:", "worker 3:"}},
		// A chain on one worker: every access is private, the stream is execs.
		{[]string{"-workload", "chain", "-size", "30", "-workers", "2", "-mapping", "single:0", "-emit", "stats"},
			[]string{"elision: 100.0% of accesses (30 of 30)", "worker 0: 90 micro-ops canonical, 30 emitted, 120 bytes stored", "worker 1: 30 micro-ops canonical, 0 emitted, 0 bytes stored"}},
		{[]string{"-workload", "gemm", "-size", "2", "-emit", "dot"}, []string{"digraph"}},
		{[]string{"-workload", "lu", "-size", "2", "-emit", "json"}, []string{`"tasks"`}},
	} {
		var buf bytes.Buffer
		reject, err := run(tc.args, &buf)
		if err != nil || reject {
			t.Fatalf("rio-vet %v: reject=%v err=%v", tc.args, reject, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("rio-vet %v: output missing %q:\n%s", tc.args, want, buf.String())
			}
		}
	}
	// The emitted JSON is what -graph reads back, with the same identity.
	var js, direct, viaFile bytes.Buffer
	if _, err := run([]string{"-workload", "cholesky", "-size", "3", "-emit", "json"}, &js); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flow.json")
	if err := os.WriteFile(path, js.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{"-workload", "cholesky", "-size", "3", "-emit", "stats"}, &direct); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{"-graph", path, "-emit", "stats"}, &viaFile); err != nil {
		t.Fatal(err)
	}
	if direct.String() != viaFile.String() {
		t.Errorf("stats differ between the workload and its emitted JSON:\n%s\nvs\n%s", direct.String(), viaFile.String())
	}
}

func TestVetEmitAllWorkloadsAndMappings(t *testing.T) {
	for _, wl := range []string{"lu", "cholesky", "gemm", "wavefront", "chain", "independent", "random", "tree", "forkjoin"} {
		for _, m := range []string{"cyclic", "block", "owner"} {
			if _, err := run([]string{"-workload", wl, "-size", "4", "-mapping", m, "-emit", "stats"}, &bytes.Buffer{}); err != nil {
				t.Errorf("%s/%s: %v", wl, m, err)
			}
		}
	}
}

func TestVetUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "nope", "-emit", "stats"},
		{"-mapping", "nope", "-emit", "stats"},
		{"-emit", "nope"},
		{"-workload", "nondet", "-emit", "json"},
		{"-mapping", "nope"},
		{"-passes", "nope"},
		{"-fail-on", "nope"},
		{"-graph", "/does/not/exist.json"},
	} {
		if _, err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("rio-vet %v: want usage error", args)
		}
	}
}

// TestVetExitCodeContract pins the exit-status contract (audited and
// verified correct, no fix needed): run's two results map to exit codes
// in main — err != nil → 2 (usage/internal error), reject → 1 (findings
// at or above -fail-on), neither → 0. A finding must never surface
// through err: scripts rely on exit 2 meaning "the tool could not run",
// not "the tool found something".
func TestVetExitCodeContract(t *testing.T) {
	// A graph document must be the whole file, as a submission must be the
	// whole body: rio-serve rejects these bytes, so rio-vet does too.
	trailing := filepath.Join(t.TempDir(), "trailing.json")
	if err := os.WriteFile(trailing, []byte(`{"name":"x","num_data":0,"tasks":[]} garbage`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		reject bool // want exit 1
		err    bool // want exit 2
	}{
		{"clean flow", []string{"-workload", "lu", "-size", "3", "-workers", "2"}, false, false},
		{"nondeterminism is a finding", []string{"-workload", "nondet"}, true, false},
		{"serialized mapping is a finding", []string{"-workload", "wavefront", "-size", "4", "-workers", "4", "-mapping", "single:0"}, true, false},
		{"info findings below -fail-on pass", []string{"-workload", "lu", "-size", "3", "-workers", "2", "-fail-on", "error"}, false, false},
		{"bad flag", []string{"-no-such-flag"}, false, true},
		{"bad mapping spec", []string{"-mapping", "nope"}, false, true},
		{"missing graph file", []string{"-graph", "/does/not/exist.json"}, false, true},
		{"bytes after the graph", []string{"-graph", trailing}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reject, err := run(tc.args, &bytes.Buffer{})
			if reject != tc.reject {
				t.Errorf("reject = %v, want %v", reject, tc.reject)
			}
			if (err != nil) != tc.err {
				t.Errorf("err = %v, want err=%v", err, tc.err)
			}
			if reject && err != nil {
				t.Error("finding reported through both channels")
			}
		})
	}
}
