package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTraceEngines(t *testing.T) {
	for _, eng := range []string{"rio", "centralized", "sequential"} {
		var buf bytes.Buffer
		args := []string{"-workload", "lu", "-size", "3", "-workers", "2",
			"-engine", eng, "-task-size", "200", "-width", "40"}
		if err := run(args, &buf); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		out := buf.String()
		for _, want := range []string{"tasks", "per-kernel breakdown", "critical path", "w0"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q", eng, want)
			}
		}
	}
}

func TestRunTraceWorkloads(t *testing.T) {
	for _, wl := range []string{"lu", "cholesky", "gemm", "wavefront", "chain", "independent", "random", "tree", "forkjoin"} {
		var buf bytes.Buffer
		args := []string{"-workload", wl, "-size", "4", "-workers", "2", "-task-size", "100", "-width", "30"}
		if err := run(args, &buf); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
	}
}

// -steal runs the rio engine with a ranked-victim steal policy and
// switches to owner-aware span recording; it is rejected for every other
// engine.
func TestRunTraceSteal(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-workload", "lu", "-size", "3", "-workers", "2",
		"-task-size", "200", "-width", "30", "-steal"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tasks") {
		t.Errorf("steal run output truncated:\n%s", buf.String())
	}
	if err := run([]string{"-engine", "centralized", "-steal"}, &buf); err == nil {
		t.Error("-steal accepted for a non-rio engine")
	}
}

func TestRunTraceRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "nope"}, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
	// ws and prio named the centralized engine's retired work-stealing
	// and priority schedulers.
	for _, eng := range []string{"nope", "ws", "prio"} {
		if err := run([]string{"-engine", eng}, &buf); err == nil {
			t.Errorf("unknown engine %q accepted", eng)
		}
	}
}

func TestRunTraceChromeExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	args := []string{"-workload", "wavefront", "-size", "4", "-workers", "2",
		"-task-size", "100", "-width", "20", "-chrome", path}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome export is not a JSON event array: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph]++
	}
	// The wavefront has 16 tasks and 24 dependency edges: slices, counter
	// samples and flow arrows must all be present.
	if phases["X"] != 16 {
		t.Errorf("task slices = %d, want 16", phases["X"])
	}
	if phases["C"] == 0 {
		t.Error("no counter events in chrome export")
	}
	if phases["s"] == 0 || phases["s"] != phases["f"] {
		t.Errorf("flow events unpaired: %d starts, %d finishes", phases["s"], phases["f"])
	}
	if phases["M"] == 0 {
		t.Error("no thread-name metadata in chrome export")
	}
}
