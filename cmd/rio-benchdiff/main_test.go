package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const (
	spec       = "../../BENCHMARK.json"
	parentRuns = "testdata/stream-windows.parent.jsonl"
	changeRuns = "testdata/stream-windows.change.jsonl"
)

// The fixture is the ten stream-windows pairs EXPERIMENTS.md lists under "A
// window is a run" (seeds 31–40, every run in seed order) as ledger result
// lines. EXPERIMENTS.md gives no operation counts, so every run carries the
// same stand-in attempted count.
//
// printed is the summary table above those runs, in the ledger's units:
// each side's q1 / median / q3, the median difference in per cent and the
// pairs the change won. unit is the last digit the table prints. The listed
// runs are rounded to that digit too, so a quartile computed from them may
// sit up to one unit from the printed one (half for the runs' rounding, half
// for the table's). The median difference must come within 0.1 percentage
// point, except for setup_s: its runs are listed to 1 µs of ≈0.33 ms, which
// fixes a median difference only to ±0.3 point.
var printed = []struct {
	metric         string
	unit           float64
	parent, change [3]float64
	diffPct        float64
	diffTol        float64
	wins           int
}{
	{"op_p50_us", 0.1, [3]float64{33.8, 35.3, 38.8}, [3]float64{34.5, 35.3, 37.2}, +0.2, 0.1, 5},
	{"op_p90_us", 0.1, [3]float64{40.3, 43.1, 47.6}, [3]float64{36.7, 40.8, 45.7}, -5.4, 0.1, 8},
	{"tasks_per_s", 1e3, [3]float64{6.210e6, 7.358e6, 7.851e6}, [3]float64{6.430e6, 6.987e6, 7.239e6}, -5.0, 0.1, 4},
	{"efficiency", 1e-3, [3]float64{0.427, 0.451, 0.463}, [3]float64{0.470, 0.476, 0.481}, +5.7, 0.1, 8},
	{"cpu_s_per_mtask", 1e-4, [3]float64{0.2178, 0.2302, 0.2854}, [3]float64{0.2204, 0.2283, 0.2470}, -0.8, 0.1, 5},
	{"retained_heap_mb", 1e-4, [3]float64{0.3912, 0.3918, 0.3922}, [3]float64{0.4014, 0.4014, 0.4019}, +2.5, 0.1, 0},
	{"setup_s", 1e-6, [3]float64{0.291e-3, 0.330e-3, 0.355e-3}, [3]float64{0.268e-3, 0.329e-3, 0.354e-3}, -0.5, 0.3, 6},
}

func TestRunEndToEnd(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-spec", spec, parentRuns, changeRuns}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	report := out.String()
	if strings.Contains(report, "gain") {
		t.Errorf("a gain from runs that claimed none:\n%s", report)
	}
	for _, want := range printed {
		f := reportLine(t, report, want.metric)
		// metric unit q1 / median / q3 q1 / median / q3 diff % k of n verdict…
		if len(f) < 18 {
			t.Fatalf("%s: short line %q", want.metric, f)
		}
		for i, at := range []int{2, 4, 6, 7, 9, 11} {
			exp := want.parent[i%3]
			if i >= 3 {
				exp = want.change[i%3]
			}
			if got := parseFloat(t, f[at]); math.Abs(got-exp) > want.unit*(1+1e-9) {
				t.Errorf("%s: field %d = %v, printed %v (unit %v)", want.metric, at, got, exp, want.unit)
			}
		}
		if got := parseFloat(t, f[12]); math.Abs(got-want.diffPct) > want.diffTol+1e-9 {
			t.Errorf("%s: median difference %v %%, printed %v %%", want.metric, got, want.diffPct)
		}
		if got := strings.Join(f[14:17], " "); got != strconv.Itoa(want.wins)+" of 10" {
			t.Errorf("%s: better in %s, printed %d of 10", want.metric, got, want.wins)
		}
	}
}

func TestDiffFlagsRegressionBeyondTolerance(t *testing.T) {
	// Every change-side op_p50_us × 1.3: 30 % worse against a 25 % bound.
	change := rewrite(t, changeRuns, func(_ int, r map[string]any) {
		m := r["metrics"].(map[string]any)["op_p50_us"].(map[string]any)
		m["value"] = m["value"].(float64) * 1.3
	})
	var out bytes.Buffer
	err := run([]string{"-spec", spec, parentRuns, change}, &out)
	if !errors.Is(err, errWorse) || !strings.Contains(err.Error(), "op_p50_us") {
		t.Fatalf("err = %v, want a regression naming op_p50_us\n%s", err, out.String())
	}
	if f := reportLine(t, out.String(), "op_p50_us"); f[len(f)-1] != "regression" {
		t.Errorf("verdict %q", f[len(f)-1])
	}
	if f := reportLine(t, out.String(), "op_p90_us"); f[len(f)-1] == "regression" {
		t.Error("op_p90_us flagged though it did not move")
	}
}

func TestRunFailsOnLargerFailedShare(t *testing.T) {
	change := rewrite(t, changeRuns, func(i int, r map[string]any) {
		if i == 3 {
			r["failed"] = 1.0
		}
	})
	err := run([]string{"-spec", spec, parentRuns, change}, &bytes.Buffer{})
	if !errors.Is(err, errWorse) || !strings.Contains(err.Error(), "failed share") {
		t.Fatalf("err = %v, want the failed share named", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	data, err := os.ReadFile(changeRuns)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.jsonl")
	if err := os.WriteFile(short, bytes.Join(bytes.SplitAfter(data, []byte("\n"))[:5], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	undefined := rewrite(t, changeRuns, func(_ int, r map[string]any) {
		r["metrics"].(map[string]any)["op_p95_us"] = map[string]any{"value": 1.0, "unit": "us"}
	})
	for name, args := range map[string][]string{
		"mismatched line counts": {"-spec", spec, parentRuns, short},
		"undefined metric":       {"-spec", spec, parentRuns, undefined},
		"one file":               {"-spec", spec, parentRuns},
		"missing spec":           {"-spec", filepath.Join(t.TempDir(), "none.json"), parentRuns, changeRuns},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil || errors.Is(err, errWorse) {
			t.Errorf("%s: err = %v, want a usage error", name, err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metric{Name: "op_p50_us", Better: "lower", Bound: 0.25}
	parent := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shifted := func(d float64, except ...int) []float64 {
		c := make([]float64, len(parent))
		for i, p := range parent {
			c[i] = p + d
		}
		for _, i := range except {
			c[i] = parent[i] + 1
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		d       metric
		p, c    []float64
		failed  bool
		verdict string
	}{
		{"gain in 9 of 10", lower, parent, shifted(-10, 0), false, "gain"},
		{"8 of 10 is no gain", lower, parent, shifted(-10, 0, 1), false, "within bound"},
		{"3 of 3 is no gain", lower, parent[:3], shifted(-10)[:3], false, "within bound"},
		{"no gain while more fail", lower, parent, shifted(-10), true, "within bound"},
		{"inside the parent's spread", lower, parent, shifted(-4), false, "within bound"},
		{"regression", lower, parent, shifted(30), false, "regression"},
		{"higher is better", metric{Better: "higher", Bound: 0.25}, parent, shifted(-30), false, "regression"},
		{"spread beyond the bound", lower, []float64{10, 20, 30, 40}, []float64{11, 19, 31, 39}, false, "unresolved"},
		{"every change run better", lower, []float64{10, 11, 12, 40}, []float64{9, 9, 9, 9}, false, "within bound"},
		{"per-layer", metric{Better: "lower"}, parent, shifted(30), false, "not gated"},
	} {
		if got := compare(tc.d, tc.p, tc.c, tc.failed).verdict; got != tc.verdict {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.verdict)
		}
	}
}

// rewrite copies a fixture file into a temporary directory, passing every
// run, decoded, through edit.
func rewrite(t *testing.T, path string, edit func(i int, run map[string]any)) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r map[string]any
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		edit(i, r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(append(b, '\n'))
	}
	dst := filepath.Join(t.TempDir(), filepath.Base(path))
	if err := os.WriteFile(dst, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func reportLine(t *testing.T, report, metric string) []string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
			return f
		}
	}
	t.Fatalf("no line for %s in\n%s", metric, report)
	return nil
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
