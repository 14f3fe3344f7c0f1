package rio_test

import (
	"errors"
	"expvar"
	"io"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rio"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/stf"
)

// New with the InOrder model must return the caching engine: a Runtime
// that also runs recorded graphs through the compiled fast path.
func TestNewInOrderIsGraphRunner(t *testing.T) {
	rt, err := rio.New(rio.Options{Workers: 2, Timeout: time.Minute, Preflight: rio.PreflightAccess})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != "rio" {
		t.Errorf("Name() = %q, want \"rio\"", rt.Name())
	}
	gr, ok := rt.(rio.GraphRunner)
	if !ok {
		t.Fatal("New(InOrder) does not implement GraphRunner")
	}
	g := graphs.Wavefront(4, 4)
	var ran atomic.Int64
	if err := gr.RunGraph(g, func(*rio.Task, rio.WorkerID) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != int64(len(g.Tasks)) {
		t.Errorf("graph run executed %d tasks, want %d", got, len(g.Tasks))
	}
	// Other models stay plain Runtimes.
	crt, err := rio.New(rio.Options{Model: rio.Centralized, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := crt.(rio.GraphRunner); ok {
		t.Error("centralized runtime unexpectedly implements GraphRunner")
	}
}

// The caching engine must apply Preflight to graphs at compile time.
func TestEnginePreflightRejectsGraph(t *testing.T) {
	e, err := rio.NewEngine(rio.Options{Workers: 2, Preflight: rio.PreflightAccess})
	if err != nil {
		t.Fatal(err)
	}
	g := stf.NewGraph("bad", 1)
	g.Add(0, 0, 0, 0, stf.R(7)) // data 7 out of range for NumData=1
	err = e.RunGraph(g, func(*rio.Task, rio.WorkerID) {})
	var pf *rio.PreflightError
	if !errors.As(err, &pf) {
		t.Fatalf("want *rio.PreflightError for a defective graph, got %v", err)
	}
}

// Progress must be reachable through the Runtime interface for every
// model, including decorated runtimes (Timeout/Preflight wrappers).
func TestProgressThroughPublicAPI(t *testing.T) {
	g := graphs.Wavefront(4, 4)
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		rt, err := rio.New(rio.Options{Model: m, Workers: 2, Timeout: time.Minute, Preflight: rio.PreflightAccess})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if pr := rt.Progress(); pr.Workers != nil {
			t.Errorf("%v: non-zero Progress before the first run", m)
		}
		if err := enginetest.Check(rt, g); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		pr := rt.Progress()
		if pr.Running {
			t.Errorf("%v: Running after the run returned", m)
		}
		if got, want := pr.Executed(), int64(len(g.Tasks)); got != want {
			t.Errorf("%v: Progress.Executed = %d, want %d", m, got, want)
		}
	}
}

func TestMetricsHandlerServesExposition(t *testing.T) {
	rt, err := rio.New(rio.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := graphs.Wavefront(4, 4)
	if err := enginetest.Check(rt, g); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rio.MetricsHandler(rt))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{"rio_run_running 0", "rio_tasks_executed_total", "rio_wait_duration_seconds_bucket"} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q\n%s", want, body)
		}
	}
}

func TestPublishExpvar(t *testing.T) {
	rt, err := rio.New(rio.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := graphs.Wavefront(4, 4)
	if err := enginetest.Check(rt, g); err != nil {
		t.Fatal(err)
	}
	rio.PublishExpvar("rio_test_progress", rt)
	v := expvar.Get("rio_test_progress")
	if v == nil {
		t.Fatal("expvar not published")
	}
	if s := v.String(); !strings.Contains(s, "\"executed\"") {
		t.Errorf("expvar JSON missing executed counters: %s", s)
	}
}

// Hooks installed through the public Options must fire on every model.
func TestHooksThroughPublicAPI(t *testing.T) {
	g := graphs.Wavefront(4, 4)
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		var starts, ends atomic.Int64
		var runs atomic.Int64
		rt, err := rio.New(rio.Options{Model: m, Workers: 2, Hooks: &rio.Hooks{
			OnRunStart:  func(int, int) { runs.Add(1) },
			OnTaskStart: func(rio.WorkerID, rio.TaskID) { starts.Add(1) },
			OnTaskEnd:   func(rio.WorkerID, rio.TaskID) { ends.Add(1) },
		}})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := enginetest.Check(rt, g); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		// Check runs the engine once (plus a sequential golden run on a
		// separate engine): exactly one run, one hook pair per task.
		if runs.Load() != 1 {
			t.Errorf("%v: OnRunStart fired %d times, want 1", m, runs.Load())
		}
		if starts.Load() != int64(len(g.Tasks)) || starts.Load() != ends.Load() {
			t.Errorf("%v: task hooks fired %d/%d, want %d/%d", m, starts.Load(), ends.Load(), len(g.Tasks), len(g.Tasks))
		}
	}
}
