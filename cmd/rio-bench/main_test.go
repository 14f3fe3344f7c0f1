package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"rio/internal/spec"
)

// The CLI is a thin shell over internal/bench; these tests exercise flag
// parsing, subcommand dispatch and the helpers with tiny workloads.

func TestRunSubcommands(t *testing.T) {
	base := []string{
		"-workers", "3", "-tasks", "64", "-task-sizes", "50",
		"-reps", "1", "-warmup", "0",
		"-n", "16", "-tile-sizes", "8,16",
		"-max-workers", "2", "-tasks-per-worker", "32", "-fig7-task-size", "16",
	}
	for _, cmd := range []string{"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "costmodel", "hpl"} {
		if err := run(append(append([]string{}, base...), cmd), io.Discard); err != nil {
			t.Errorf("%s: %v", cmd, err)
		}
	}
}

func TestRunFig8SingleExperiment(t *testing.T) {
	args := []string{"-workers", "3", "-tasks", "64", "-task-sizes", "50",
		"-reps", "1", "-warmup", "0", "-experiment", "2", "fig8"}
	if err := run(args, io.Discard); err != nil {
		t.Error(err)
	}
}

func TestRunSim(t *testing.T) {
	args := []string{"-workers", "3", "-tasks", "64", "-task-sizes", "50,5000",
		"-reps", "1", "-warmup", "0", "-sim-workers", "8", "sim"}
	if err := run(args, io.Discard); err != nil {
		t.Error(err)
	}
}

func TestRunCSVOutput(t *testing.T) {
	args := []string{"-workers", "3", "-tasks", "32", "-task-sizes", "50",
		"-reps", "1", "-warmup", "0", "-csv", "fig6"}
	if err := run(args, io.Discard); err != nil {
		t.Error(err)
	}
}

// -json prints rows and nothing else: `all` at tiny sizes must be one JSON
// array, without the cost-model report it prints as text.
func TestRunJSONAllIsOneArray(t *testing.T) {
	args := []string{"-workers", "2", "-tasks", "32", "-task-sizes", "50",
		"-reps", "1", "-warmup", "0", "-n", "16", "-tile-sizes", "8,16",
		"-max-workers", "2", "-tasks-per-worker", "16", "-fig7-task-size", "16",
		"-json", "all"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("not one JSON array: %v\n%s", err, out.Bytes())
	}
	if len(rows) == 0 {
		t.Error("no rows")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{}, io.Discard); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"nope"}, io.Discard); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"-task-sizes", "abc", "fig6"}, io.Discard); err == nil {
		t.Error("bad task sizes accepted")
	}
	if err := run([]string{"-tile-sizes", "x", "fig3"}, io.Discard); err == nil {
		t.Error("bad tile sizes accepted")
	}
	if err := run([]string{"table1", "extra"}, io.Discard); err == nil {
		t.Error("a second subcommand accepted")
	}
	for _, cmd := range []string{"costmodel", "table1"} {
		for _, flag := range []string{"-json", "-csv"} {
			if err := run([]string{flag, cmd}, io.Discard); err == nil {
				t.Errorf("%s accepted %s, which applies to rows only", cmd, flag)
			}
		}
	}
}

func TestHPLWidths(t *testing.T) {
	got := hplWidths(32, []int{7, 8, 16, 64})
	if len(got) != 2 || got[0] != 8 || got[1] != 16 {
		t.Errorf("hplWidths = %v, want [8 16]", got)
	}
	if got := hplWidths(32, []int{7}); len(got) != 1 || got[0] != 32 {
		t.Errorf("fallback = %v, want [32]", got)
	}
}

func TestParsers(t *testing.T) {
	u, err := parseUints(" 1, 2 ,3")
	if err != nil || len(u) != 3 || u[2] != 3 {
		t.Errorf("parseUints = %v, %v", u, err)
	}
	i, err := parseInts("4,5")
	if err != nil || len(i) != 2 || i[1] != 5 {
		t.Errorf("parseInts = %v, %v", i, err)
	}
	if _, err := parseUints("-1"); err == nil {
		t.Error("negative uint accepted")
	}
}

func TestParseSizes(t *testing.T) {
	sz, err := parseSizes("2x2, 3x2")
	if err != nil || len(sz) != 2 || sz[1] != [2]int{3, 2} {
		t.Errorf("parseSizes = %v, %v", sz, err)
	}
}

// Table 1 at the paper's two workers: the STF distinct-state counts of the
// 2x2 and 3x2 LU instances and a clean verdict on every row.
func TestTable1Exhaustive(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workers", "2", "table1", "-sizes", "2x2,3x2"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want a header, four rows and a verdict:\n%s", len(lines), out.String())
	}
	for i, want := range map[int]string{1: "23", 3: "94"} {
		f := strings.Fields(lines[i])
		if f[2] != "STF" || f[4] != want {
			t.Errorf("line %d = %q, want STF with %s distinct states", i, lines[i], want)
		}
	}
	for _, l := range lines[1:5] {
		if !strings.HasSuffix(l, "ok") {
			t.Errorf("row not ok: %q", l)
		}
	}
}

func TestTable1Sampled(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workers", "3", "-sample", "50", "table1", "-sizes", "4x4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no violations in 50 sampled executions") {
		t.Errorf("no sampled verdict:\n%s", out.String())
	}
}

func TestTable1RejectsBadSizes(t *testing.T) {
	for _, s := range []string{"2", "2x", "ax2", "2xb", "2x2x2"} {
		if err := run([]string{"table1", "-sizes", s}, io.Discard); err == nil {
			t.Errorf("size %q accepted", s)
		}
	}
}

func TestTable1RejectsTooManyWorkers(t *testing.T) {
	if err := run([]string{"-workers", "9", "table1", "-sizes", "2x2"}, io.Discard); err == nil {
		t.Error("worker count beyond spec.MaxWorkers accepted")
	}
}

// A violation is an error, so the command exits non-zero.
func TestTable1ViolationFails(t *testing.T) {
	ok := &spec.Result{Generated: 1, Distinct: 1}
	bad := &spec.Result{Generated: 1, Distinct: 1, Violations: []string{"data race"}}
	var out bytes.Buffer
	err := writeTable1(&out, []spec.Table1Row{{Rows: 2, Cols: 2, Tasks: 5, STF: ok, RIO: bad}}, 0)
	if err == nil {
		t.Fatal("a row with a violation printed no error")
	}
	if !strings.Contains(out.String(), "FAILED (1 violations)") || !strings.Contains(out.String(), "! data race") {
		t.Errorf("violation not printed:\n%s", out.String())
	}
	if err := writeTable1(io.Discard, []spec.Table1Row{{Rows: 2, Cols: 2, STF: ok, RIO: ok}}, 0); err != nil {
		t.Errorf("clean row: %v", err)
	}
}
