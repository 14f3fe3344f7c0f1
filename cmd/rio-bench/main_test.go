package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
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
	for _, flag := range []string{"-json", "-csv"} {
		if err := run([]string{flag, "costmodel"}, io.Discard); err == nil {
			t.Errorf("costmodel accepted %s, which applies to rows only", flag)
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
