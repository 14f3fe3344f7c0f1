package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rio"
	"rio/internal/server/ingest"
)

// toySize keeps every workload's shape and shrinks every count, so the
// whole suite runs one untraced and one traced round in a few seconds.
func toySize() sizing {
	return sizing{
		fineTasks: 512, fineOps: 4, fineIters: 8,
		luTiles: 4, luOps: 4, luIters: 8,
		skewTasks: 256, skewOps: 4, skewIters: 8,
		warmTiles: 4, warmOpen: 10, warmClosed: 20, warmRate: 2000,
		coldLayers: 4, coldWidth: 8, coldOps: 3,
		windowOps: 24, windowIters: 4,
		seqReps: 1, minRounds: 2, maxRounds: 2,
		oracleWindows: 6, probeReps: 1,
		minSetups: 1, maxSetups: 1,
	}
}

func toyRunner(t *testing.T, trace bool) *runner {
	return &runner{
		cfg:   config{workers: 2, clients: 2, seed: 7, size: toySize()},
		trace: trace, outDir: t.TempDir(),
	}
}

func TestEveryWorkloadAtToySize(t *testing.T) {
	results, err := toyRunner(t, false).measure(workloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", res.Workload, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.Workload, d.name, v)
			}
		}
	}
}

func TestTraceWritesNestedSpans(t *testing.T) {
	r := toyRunner(t, true)
	results, err := r.measure(workloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Correct {
			t.Errorf("%s: traced run incorrect (%d of %d failed)", res.Workload, res.Failed, res.Attempted)
		}
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", res.Workload, d.name)
			}
		}
		data, err := os.ReadFile(filepath.Join(r.outDir, "trace_"+res.Workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: %v", res.Workload, err)
		}
		if len(file.Spans) == 0 {
			t.Errorf("%s: no spans", res.Workload)
		}
		for i, s := range file.Spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) ends before it starts", res.Workload, i, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			if s.Parent >= i {
				t.Fatalf("%s: span %d (%s) has parent %d, not an earlier span", res.Workload, i, s.Name, s.Parent)
			}
			if p := file.Spans[s.Parent]; s.Start < p.Start || s.End > p.End || s.OpID != p.OpID {
				t.Errorf("%s: span %d (%s) [%d,%d] op %d lies outside its parent %s [%d,%d] op %d",
					res.Workload, i, s.Name, s.Start, s.End, s.OpID, p.Name, p.Start, p.End, p.OpID)
			}
		}
	}
	// The two serve workloads sit on either side of the compiled-program cache.
	for _, want := range []struct {
		workload string
		ratio    float64
	}{{"serve-warm", 1}, {"serve-cold", 0}} {
		for _, res := range results {
			if res.Workload == want.workload && res.Metrics["rio.cache_hit_ratio"] != want.ratio {
				t.Errorf("%s: rio.cache_hit_ratio = %v, want %v", want.workload, res.Metrics["rio.cache_hit_ratio"], want.ratio)
			}
		}
	}
}

func TestContractLine(t *testing.T) {
	res := &result{Correct: true, Attempted: 3, Metrics: map[string]float64{"setup_s": 0.5}}
	data, err := json.Marshal(res.contract(endToEnd))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
		t.Fatalf("contract line has keys %v", line)
	}
	var metrics map[string]contractMetric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["setup_s"] != (contractMetric{0.5, "s"}) {
		t.Errorf("metrics = %v", metrics)
	}
}

// TestBenchmarkJSONMatches keeps the contract file and the program's own
// lists of workloads and metrics from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip(err)
	}
	type named struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind string
		spec []named
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", c.kind, i, c.spec[i], d)
			}
		}
	}
}

func TestGeneratorsAreSeededAndSized(t *testing.T) {
	if n := len(luFlow(20, 1).Tasks); n != 2870 {
		t.Errorf("luFlow(20) has %d tasks, want 2870", n)
	}
	if n := len(choleskyFlow(12, 1).Tasks); n != 364 {
		t.Errorf("choleskyFlow(12) has %d tasks, want 364", n)
	}
	full := fullSize()
	body := func(seed int64) []byte {
		return encodeFlow(layeredFlow(rand.New(rand.NewSource(seed)), "cold", full.coldLayers, full.coldWidth), "")
	}
	a, b, c := body(1), body(1), body(2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different bodies")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same body")
	}
	if len(a) < 350_000 || len(a) > 450_000 {
		t.Errorf("cold body is %d bytes, want about 400 KB", len(a))
	}
	// The corpus must pass the server's default preflight under the default
	// mapping, or serve-cold would measure rejections.
	for _, workers := range []int{1, 2, 3, 4} {
		sub, err := ingest.Parse(bytes.NewReader(a), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub.Graph.Tasks) != full.coldLayers*full.coldWidth {
			t.Errorf("parsed %d tasks, want %d", len(sub.Graph.Tasks), full.coldLayers*full.coldWidth)
		}
		if _, err := ingest.Preflight(sub, rio.PreflightAccess|rio.PreflightMapping); err != nil {
			t.Errorf("%d workers: corpus flow rejected by preflight: %v", workers, err)
		}
	}
	shapes := windowShapes(rand.New(rand.NewSource(1)), windowShapeN, windowChains, windowData)
	seen := map[string]bool{}
	for _, s := range shapes {
		seen[string(encodeFlow(windowFlow(s, windowDepth, windowData, 1), ""))] = true
	}
	if len(seen) != windowShapeN {
		t.Errorf("%d distinct window shapes, want %d", len(seen), windowShapeN)
	}
}

func TestPercentilesAndTail(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	if got := percentile(v, 50); got != 499.5 {
		t.Errorf("p50 = %v, want 499.5", got)
	}
	if _, pct := tail(v); pct != 99 {
		t.Errorf("tail of 1000 samples is p%v, want p99 (ten samples beyond it)", pct)
	}
	if _, pct := tail(v[:50]); pct != 0 {
		t.Errorf("tail of 50 samples is p%v, want none", pct)
	}
}
