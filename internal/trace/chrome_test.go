package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"rio/internal/centralized"
	"rio/internal/core"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/stf"
	"rio/internal/trace"
)

// The plain span export: two independent tasks on two lanes give one "X"
// slice each, named "kernel <id>" by default or by the caller's namer.
func TestWriteChromeTrace(t *testing.T) {
	g := stf.NewGraph("pair", 2)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 0, 0, 0, stf.W(1))
	rec := trace.NewRecorder(2)
	rec.Record(0, trace.Span{Task: 0, Kernel: 1, Start: 0, End: 10 * time.Microsecond})
	rec.Record(1, trace.Span{Task: 1, Kernel: 2, Start: 5 * time.Microsecond, End: 8 * time.Microsecond})
	var buf bytes.Buffer
	if err := rec.WriteChromeTraceGraph(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	slices := 0
	names := map[any]bool{}
	for _, ev := range events {
		if ev["ph"] == "X" {
			slices++
			names[ev["name"]] = true
		}
	}
	if slices != 2 {
		t.Fatalf("task slices = %d, want 2", slices)
	}
	if len(names) != 2 || !names["kernel 1"] || !names["kernel 2"] {
		t.Errorf("slice names = %v, want the defaults \"kernel 1\" and \"kernel 2\"", names)
	}

	buf.Reset()
	if err := rec.WriteChromeTraceGraph(&buf, g, func(int) string { return "custom" }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"custom"`) {
		t.Error("custom kernel naming ignored")
	}
}

func TestRaceDetectorCleanOnEngines(t *testing.T) {
	g := graphs.RandomDeps(400, 24, 2, 1, 9)
	for _, mk := range []func() (interface {
		Run(int, stf.Program) error
	}, error){
		func() (interface {
			Run(int, stf.Program) error
		}, error) {
			return core.New(core.Options{Workers: 4, Mapping: sched.Cyclic(4)})
		},
		func() (interface {
			Run(int, stf.Program) error
		}, error) {
			return centralized.New(centralized.Options{Workers: 4})
		},
	} {
		e, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		det := trace.NewRaceDetector(g.NumData)
		cells := kernels.NewCells(4)
		kern := det.Instrument(graphs.CounterKernel(cells, 500))
		if err := e.Run(g.NumData, stf.Replay(g, kern)); err != nil {
			t.Fatal(err)
		}
		if err := det.Err(); err != nil {
			t.Errorf("false positive: %v", err)
		}
	}
}

func TestRaceDetectorCleanWithReductions(t *testing.T) {
	g := stf.NewGraph("reds", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	for i := 0; i < 64; i++ {
		g.Add(0, i, 0, 0, stf.Red(0))
	}
	g.Add(0, 0, 0, 0, stf.R(0))
	e, err := core.New(core.Options{Workers: 4, Mapping: sched.Cyclic(4)})
	if err != nil {
		t.Fatal(err)
	}
	det := trace.NewRaceDetector(1)
	kern := det.Instrument(func(*stf.Task, stf.WorkerID) {})
	if err := e.Run(1, stf.Replay(g, kern)); err != nil {
		t.Fatal(err)
	}
	if err := det.Err(); err != nil {
		t.Errorf("reduction serialization violated: %v", err)
	}
}

// Negative control: deliberately run conflicting kernels concurrently —
// the detector must notice.
func TestRaceDetectorCatchesConflicts(t *testing.T) {
	det := trace.NewRaceDetector(1)
	kern := det.Instrument(func(*stf.Task, stf.WorkerID) {
		time.Sleep(2 * time.Millisecond) // keep both bodies inside
	})
	w := stf.Task{ID: 0, Accesses: []stf.Access{stf.W(0)}}
	r := stf.Task{ID: 1, Accesses: []stf.Access{stf.R(0)}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); kern(&w, 0) }()
	go func() { defer wg.Done(); kern(&r, 1) }()
	wg.Wait()
	if det.Err() == nil {
		t.Error("concurrent read/write on one data not detected")
	}
	if len(det.Violations()) == 0 {
		t.Error("violations list empty")
	}
}

func TestRaceDetectorAllowsConcurrentReaders(t *testing.T) {
	det := trace.NewRaceDetector(1)
	kern := det.Instrument(func(*stf.Task, stf.WorkerID) {
		time.Sleep(time.Millisecond)
	})
	a := stf.Task{ID: 0, Accesses: []stf.Access{stf.R(0)}}
	b := stf.Task{ID: 1, Accesses: []stf.Access{stf.R(0)}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); kern(&a, 0) }()
	go func() { defer wg.Done(); kern(&b, 1) }()
	wg.Wait()
	if err := det.Err(); err != nil {
		t.Errorf("readers flagged: %v", err)
	}
}

// Structural validation of the graph-aware export: a three-task chain
// (0 →(data) 1 →(data) 2) with hand-placed spans must produce thread
// metadata, task slices, paired flow arrows along both dependency edges,
// and ready/executed counter rows with the right final values.
func TestWriteChromeTraceGraph(t *testing.T) {
	g := stf.NewGraph("chain", 2)
	g.Add(0, 0, 0, 0, stf.W(0))           // task 0
	g.Add(0, 0, 0, 0, stf.R(0), stf.W(1)) // task 1 depends on 0
	g.Add(0, 0, 0, 0, stf.R(1))           // task 2 depends on 1

	rec := trace.NewRecorder(2)
	rec.Record(0, trace.Span{Task: 0, Kernel: 0, Start: 0, End: 10 * time.Microsecond})
	rec.Record(1, trace.Span{Task: 1, Kernel: 0, Start: 12 * time.Microsecond, End: 20 * time.Microsecond})
	rec.Record(0, trace.Span{Task: 2, Kernel: 0, Start: 22 * time.Microsecond, End: 30 * time.Microsecond})

	var buf bytes.Buffer
	if err := rec.WriteChromeTraceGraph(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}

	byPhase := map[string][]map[string]any{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		byPhase[ph] = append(byPhase[ph], ev)
	}
	if got := len(byPhase["X"]); got != 3 {
		t.Errorf("task slices = %d, want 3", got)
	}
	if got := len(byPhase["M"]); got != 2 {
		t.Errorf("thread metadata events = %d, want 2 (two active lanes)", got)
	}
	// Two dependency edges, each one s+f pair with matching IDs.
	if got := len(byPhase["s"]); got != 2 {
		t.Errorf("flow starts = %d, want 2", got)
	}
	if got := len(byPhase["f"]); got != 2 {
		t.Errorf("flow finishes = %d, want 2", got)
	}
	starts := map[any]bool{}
	for _, ev := range byPhase["s"] {
		starts[ev["id"]] = true
	}
	for _, ev := range byPhase["f"] {
		if !starts[ev["id"]] {
			t.Errorf("flow finish id %v has no matching start", ev["id"])
		}
		if ev["bp"] != "e" {
			t.Errorf("flow finish bp = %v, want \"e\"", ev["bp"])
		}
	}
	// Counter rows: both series present; the last "executed" sample says 3,
	// the last "ready" sample says 0 (everything ran).
	lastVal := map[string]float64{}
	for _, ev := range byPhase["C"] {
		name, _ := ev["name"].(string)
		args, _ := ev["args"].(map[string]any)
		v, _ := args["tasks"].(float64)
		lastVal[name] = v
	}
	if _, ok := lastVal["ready"]; !ok {
		t.Fatal("no \"ready\" counter row")
	}
	if v := lastVal["executed"]; v != 3 {
		t.Errorf("final executed counter = %v, want 3", v)
	}
	if v := lastVal["ready"]; v != 0 {
		t.Errorf("final ready counter = %v, want 0", v)
	}
}

// A stolen span (recorded by InstrumentOwned on a worker other than the
// task's owner) must appear in the thief's lane carrying a stolen_from
// arg, plus one "steal" flow-arrow pair from the owner's lane to the
// thief's slice.
func TestWriteChromeTraceGraphSteal(t *testing.T) {
	g := stf.NewGraph("steal", 2)
	g.Add(0, 0, 0, 0, stf.W(0)) // task 0, owner 0, runs on owner
	g.Add(0, 0, 0, 0, stf.W(1)) // task 1, owner 0, stolen by worker 1

	rec := trace.NewRecorder(2)
	kern := rec.InstrumentOwned(func(*stf.Task, stf.WorkerID) {}, sched.Single(0))
	kern(&g.Tasks[0], 0)
	kern(&g.Tasks[1], 1) // thief executes owner 0's task

	if spans := rec.Spans(1); len(spans) != 1 || !spans[0].Stolen || spans[0].Owner != 0 {
		t.Fatalf("thief lane spans = %+v, want one stolen span owned by 0", spans)
	}
	if spans := rec.Spans(0); len(spans) != 1 || spans[0].Stolen {
		t.Fatalf("owner lane spans = %+v, want one unstolen span", spans)
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTraceGraph(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var stealStarts, stealEnds int
	var stolenFrom any
	for _, ev := range events {
		if ev["cat"] == "steal" && ev["ph"] == "s" {
			if tid, _ := ev["tid"].(float64); tid != 0 {
				t.Errorf("steal arrow starts in lane %v, want the owner's lane 0", ev["tid"])
			}
			stealStarts++
		}
		if ev["cat"] == "steal" && ev["ph"] == "f" {
			if tid, _ := ev["tid"].(float64); tid != 1 {
				t.Errorf("steal arrow ends in lane %v, want the thief's lane 1", ev["tid"])
			}
			stealEnds++
		}
		if ev["ph"] == "X" {
			if args, _ := ev["args"].(map[string]any); args["task"] == float64(1) {
				stolenFrom = args["stolen_from"]
			}
		}
	}
	if stealStarts != 1 || stealEnds != 1 {
		t.Errorf("steal arrow events = %d starts, %d ends; want 1 and 1", stealStarts, stealEnds)
	}
	if stolenFrom != float64(0) {
		t.Errorf("stolen slice stolen_from = %v, want 0", stolenFrom)
	}
}

// The master lane must keep master spans out of worker 0's lane and get
// its own labeled row.
func TestRecorderMasterLane(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Record(stf.MasterWorker, trace.Span{Task: 0, Kernel: 0, Start: 0, End: time.Microsecond})
	rec.Record(0, trace.Span{Task: 1, Kernel: 0, Start: 0, End: time.Microsecond})
	if n := len(rec.Spans(0)); n != 1 {
		t.Errorf("worker 0 lane has %d spans, want 1 (master span folded in?)", n)
	}
	if n := len(rec.MasterSpans()); n != 1 {
		t.Errorf("master lane has %d spans, want 1", n)
	}
	var buf bytes.Buffer
	if err := rec.Gantt(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "m    |") {
		t.Errorf("Gantt output missing the master row:\n%s", buf.String())
	}
}
