package server

// The run width (tenant.program): a flow submitted without a mapping runs
// at Config.Workers until its 1-worker program is compiled — which starts
// once its runs have taken as long as its submit compile did
// (tenant.compileNarrow) — then at whichever of 1 and Config.Workers its
// recent runs found faster, per kernel.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rio"
	"rio/internal/analyze"
	"rio/internal/graphs"
	"rio/internal/stf"
)

func flowInfoOf(t *testing.T, base, id string) flowInfo {
	t.Helper()
	var info flowInfo
	do(t, "GET", base+"/v1/flows/"+id, "", nil, &info)
	return info
}

// runUntilNarrow runs the default tenant's flow id with kernel until its
// 1-worker program is published, and returns how many runs that took.
func runUntilNarrow(t *testing.T, s *Server, base, id, kernel string) int {
	t.Helper()
	f := s.reg.lookup(DefaultTenant).lookup(id)
	deadline := time.Now().Add(10 * time.Second)
	for n := 0; f.narrow.Load() == nil; n++ {
		if time.Now().After(deadline) {
			t.Fatalf("flow %s: no 1-worker program after %d runs and 10 s", id, n)
		}
		runFlow(t, base, "", id, kernel)
		if f.narrow.Load() != nil {
			return n + 1
		}
	}
	return 0
}

// A flow of empty tasks finishes sooner on one worker than on two: it
// settles at width 1 within a few runs, GET /v1/flows/{id} says so, and
// the 1-worker program adds its streams — one exec word per task — to the
// flow's bytes but no miss to the cache.
func TestWidthNoopSettlesAtOne(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, Prune: true})
	g := graphs.Cholesky(6)
	info := submitFlow(t, hs.URL, "", g)
	if info.Widths != nil {
		t.Errorf("a flow that never ran reports widths %+v", info.Widths)
	}
	if res := runFlow(t, hs.URL, "", info.ID, "noop"); res.Workers != 2 {
		t.Errorf("first run at width %d, want the submitted program's 2", res.Workers)
	}
	runs := 1 + runUntilNarrow(t, s, hs.URL, info.ID, "noop")
	var widths []int
	for i := 0; i < 10; i++ {
		res := runFlow(t, hs.URL, "", info.ID, "noop")
		if res.Executed != int64(len(g.Tasks)) {
			t.Fatalf("run %d executed %d of %d tasks", runs+i, res.Executed, len(g.Tasks))
		}
		widths = append(widths, res.Workers)
	}
	runs += len(widths)
	if last := widths[len(widths)-4:]; fmt.Sprint(last) != "[1 1 1 1]" {
		t.Errorf("run widths %v: a noop flow did not settle at 1", widths)
	}
	got := flowInfoOf(t, hs.URL, info.ID)
	if w := got.Widths["noop"]; w.Workers != 1 || w.NarrowWallNS <= 0 || w.WideWallNS <= 0 || w.NarrowWallNS >= w.WideWallNS {
		t.Errorf("flow info widths %+v, want noop settled at 1 with both walls measured, narrow the lower", got.Widths)
	}
	if want := info.ProgramBytes + 4*int64(len(g.Tasks)); got.ProgramBytes != want {
		t.Errorf("program_bytes %d after the 1-worker compile, want %d + 4 per task = %d", got.ProgramBytes, info.ProgramBytes, want)
	}
	p := progressOf(t, hs.URL, "")
	if p.Cache.Misses != 1 || p.Cache.Hits != int64(runs) || p.Cache.Bytes != got.ProgramBytes {
		t.Errorf("cache %+v, want 1 miss (one registered flow), %d hits and the flow's %d bytes", p.Cache, runs, got.ProgramBytes)
	}
}

// A flow of independent tasks that each take 10 µs or more finishes in
// about half the time on two workers: it stays at width 2. The kernel
// waits off the CPU, so two workers overlap their tasks whatever else the
// machine runs; a spinning one overlaps only as far as a second CPU is
// free, and the choice would rightly follow the machine's load.
func TestWidthDearKernelStaysWide(t *testing.T) {
	pause := func(*rio.Task, rio.WorkerID) { time.Sleep(10 * time.Microsecond) }
	s, hs := newTestServer(t, Config{Workers: 2, Kernels: map[string]rio.Kernel{"pause": pause}})
	info := submitFlow(t, hs.URL, "", graphs.Independent(32))
	runUntilNarrow(t, s, hs.URL, info.ID, "pause")
	var widths []int
	for i := 0; i < 10; i++ {
		widths = append(widths, runFlow(t, hs.URL, "", info.ID, "pause").Workers)
	}
	if last := widths[len(widths)-4:]; fmt.Sprint(last) != "[2 2 2 2]" {
		t.Errorf("run widths %v: a flow of 10 µs tasks left width 2", widths)
	}
	if w := flowInfoOf(t, hs.URL, info.ID).Widths["pause"]; w.Workers != 2 {
		t.Errorf("flow info width %+v, want pause settled at 2", w)
	}
}

// A submitted mapping is the one compiled and run: it pins the width at
// Config.Workers, and the flow never compiles a 1-worker program.
func TestWidthPinnedByMapping(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	g := graphs.Cholesky(6)
	info := submitPinned(t, hs.URL, "", g)
	for i := 0; i < 8; i++ {
		if res := runFlow(t, hs.URL, "", info.ID, "noop"); res.Workers != 2 {
			t.Fatalf("run %d of a flow submitted with a mapping ran at width %d", i, res.Workers)
		}
	}
	if got := flowInfoOf(t, hs.URL, info.ID); got.Widths != nil || got.ProgramBytes != info.ProgramBytes {
		t.Errorf("flow info widths %+v, %d program bytes, want none and the submitted %d", got.Widths, got.ProgramBytes, info.ProgramBytes)
	}
}

// The narrow compile waits for the flow's runs to have taken as long as its
// submit compile did: a flow whose certification took 50 ms and whose
// runs take microseconds runs 20 times without compiling a 1-worker
// program.
func TestWidthCompileWaitsForRuns(t *testing.T) {
	events := &eventLog{}
	swapCertify(t, events, func(workers int) *rio.AnalysisReport {
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	s, hs := newTestServer(t, Config{Workers: 2, Verify: true})
	info := submitFlow(t, hs.URL, "", graphs.LU(4))
	for i := 0; i < 20; i++ {
		if res := runFlow(t, hs.URL, "", info.ID, "noop"); res.Workers != 2 {
			t.Fatalf("run %d at width %d", i, res.Workers)
		}
	}
	s.Drain(context.Background()) // joins a compile, had one started
	if got := events.String(); got != "certify 2" {
		t.Errorf("certified %q after 20 runs of microseconds, want only the submitted program", got)
	}
	if got := flowInfoOf(t, hs.URL, info.ID); got.ProgramBytes != info.ProgramBytes {
		t.Errorf("program_bytes %d, want the submitted %d", got.ProgramBytes, info.ProgramBytes)
	}
}

// swapCertify replaces the certifier for one test; each call is logged as
// "certify w", w the worker count of the program it certified.
func swapCertify(t *testing.T, log *eventLog, verdict func(workers int) *rio.AnalysisReport) {
	t.Helper()
	old := certify
	certify = func(g *stf.Graph, cp *rio.CompiledProgram, m rio.Mapping, r *rio.Checkpoint) *rio.AnalysisReport {
		log.add(fmt.Sprintf("certify %d", cp.Workers))
		if rep := verdict(cp.Workers); rep != nil {
			return rep
		}
		return old(g, cp, m, r)
	}
	t.Cleanup(func() { certify = old })
}

type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.events, ",")
}

// Under Config.Verify the 1-worker program is certified before its first
// run; one the certifier rejects is logged, and the flow stays at p.
func TestWidthNarrowProgramCertified(t *testing.T) {
	g := graphs.LU(4)
	t.Run("certified", func(t *testing.T) {
		log := &eventLog{}
		swapCertify(t, log, func(int) *rio.AnalysisReport { return nil })
		_, hs := newTestServer(t, Config{Workers: 2, Verify: true, Kernels: map[string]rio.Kernel{
			"mark": func(*rio.Task, rio.WorkerID) { log.add("task") },
		}})
		info := submitFlow(t, hs.URL, "", g)
		for i := 0; i < 500; i++ {
			if res := runFlow(t, hs.URL, "", info.ID, "mark"); res.Workers == 1 {
				// Every run before it ran at 2, on the program certified at
				// submit, and the 1-worker program was certified once, while
				// they ran but before any task of this one.
				events := strings.Split(log.String(), ",")
				head, run := events[:len(events)-len(g.Tasks)], events[len(events)-len(g.Tasks):]
				tasks := slices.DeleteFunc(slices.Clone(head), func(e string) bool { return e != "task" })
				if head[0] != "certify 2" || len(head) != 2+i*len(g.Tasks) || len(tasks) != i*len(g.Tasks) ||
					!slices.Contains(head, "certify 1") || slices.ContainsFunc(run, func(e string) bool { return e != "task" }) {
					t.Fatalf("run %d, the first at width 1: events %q, want \"certify 2\", %d runs' tasks with \"certify 1\" among them, then this run's %d tasks",
						i, events, i, len(g.Tasks))
				}
				return
			}
		}
		t.Fatalf("no run at width 1 in 500: events %q", log.String())
	})
	t.Run("rejected", func(t *testing.T) {
		events := &eventLog{}
		swapCertify(t, events, func(workers int) *rio.AnalysisReport {
			if workers != 1 {
				return nil
			}
			r := &analyze.Report{}
			r.Add(analyze.Finding{Code: analyze.CodeVerifyOwnership, Severity: analyze.Error, Message: "rejected by the test"})
			return r.Finish()
		})
		var logs []string
		var mu sync.Mutex
		s, hs := newTestServer(t, Config{Workers: 2, Verify: true, Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
		info := submitFlow(t, hs.URL, "", g)
		tried := 0 // runs once the 1-worker program was certified
		for i := 0; i < 500 && tried < 4; i++ {
			if res := runFlow(t, hs.URL, "", info.ID, "noop"); res.Workers != 2 {
				t.Fatalf("run %d ran at width %d on a rejected 1-worker program", i, res.Workers)
			}
			if strings.Contains(events.String(), "certify 1") {
				tried++
			}
		}
		s.Drain(context.Background()) // joins the compile
		if got := events.String(); got != "certify 2,certify 1" {
			t.Errorf("certified %q, want one try at the 1-worker program", got)
		}
		mu.Lock()
		defer mu.Unlock()
		if !strings.Contains(strings.Join(logs, "\n"), "stays at 2 workers") {
			t.Errorf("no log line for the rejected 1-worker program in %q", logs)
		}
	})
}

// The width choice itself, on synthetic walls: the two candidates are
// measured alternately until each has settleAfter runs, the faster one is
// kept, the other is re-probed once in reprobeEvery runs times the walls'
// ratio (here 3), and one slow run does not flip a settled choice, while
// recentRuns slow ones do.
func TestWidthChoice(t *testing.T) {
	const p = 4
	c := &widthChoice{}
	c.workers.Store(p)
	var probes []int
	for i := 0; i < 2*settleAfter; i++ {
		w := c.next(p)
		probes = append(probes, w)
		c.observe(w, map[int]time.Duration{1: 300 * time.Microsecond, p: 100 * time.Microsecond}[w])
	}
	if fmt.Sprint(probes) != "[1 4 1 4]" {
		t.Fatalf("probes %v, want the widths alternately, 1 first", probes)
	}
	const period = 3 * reprobeEvery
	counts := map[int]int{}
	for i := 0; i < 2*period; i++ {
		w := c.next(p)
		if (w == 1) != ((i+1)%period == 0) {
			t.Fatalf("run %d of the settled pair at width %d: want 1 on every %d-th run only", i, w, period)
		}
		counts[w]++
	}
	if counts[p] != 2*period-2 || counts[1] != 2 || c.workers.Load() != p {
		t.Errorf("over %d runs: widths %v, settled at %d; want %d at %d and 2 probes at 1", 2*period, counts, c.workers.Load(), 2*period-2, p)
	}
	c.observe(p, 500*time.Microsecond)
	if c.next(p); c.workers.Load() != p || c.wall[1].Load() != 100_000 {
		t.Errorf("one slow run moved the choice: walls %d / %d ns", c.wall[0].Load(), c.wall[1].Load())
	}
	for i := 1; i < recentRuns; i++ {
		c.observe(p, 500*time.Microsecond)
	}
	if c.next(p); c.workers.Load() != 1 {
		t.Errorf("%d slow runs at %d did not move the choice to 1: walls %d / %d ns", recentRuns, p, c.wall[0].Load(), c.wall[1].Load())
	}
}
