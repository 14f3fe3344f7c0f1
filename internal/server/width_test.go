package server

// The run width (tenant.program): a flow holds a program per width it has
// needed. Its submit compile makes one — at Config.Workers, or for a
// never-seen POST /v1/run flow at the width its kernel's per-tenant choice
// names (kernelWidths) — and the other is compiled once its runs have taken
// as long as that compile did (tenant.compileOther); from then on each
// (flow, kernel) pair runs at whichever of 1 and Config.Workers its recent
// runs found faster.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// runUntilBoth runs the default tenant's flow id with kernel until it holds
// the programs of both widths, and returns how many runs that took.
func runUntilBoth(t *testing.T, s *Server, base, id, kernel string) int {
	t.Helper()
	f := s.reg.lookup(DefaultTenant).lookup(id)
	both := func() bool { return f.progs[0].Load() != nil && f.progs[1].Load() != nil }
	deadline := time.Now().Add(10 * time.Second)
	for n := 0; !both(); n++ {
		if time.Now().After(deadline) {
			t.Fatalf("flow %s: one program only after %d runs and 10 s", id, n)
		}
		runFlow(t, base, "", id, kernel)
		if both() {
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
	runs := 1 + runUntilBoth(t, s, hs.URL, info.ID, "noop")
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
	runUntilBoth(t, s, hs.URL, info.ID, "pause")
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
	certify = func(g *stf.Graph, cp *rio.CompiledProgram, m rio.Mapping) *rio.AnalysisReport {
		log.add(fmt.Sprintf("certify %d", cp.Workers))
		if rep := verdict(cp.Workers); rep != nil {
			return rep
		}
		return old(g, cp, m)
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

// runNew submits g under name through POST /v1/run with kernel (and
// mapping, when not empty) and returns the run's result and the flow's
// info: a never-seen flow, compiled at the width its kernel's choice names.
func runNew(t *testing.T, base string, g *stf.Graph, name, kernel, mapping string) (runResult, flowInfo) {
	t.Helper()
	named := *g
	named.Name = name
	body := fmt.Sprintf(`{"kernel":%q,"graph":%s`, kernel, graphJSON(t, &named))
	if mapping != "" {
		body += fmt.Sprintf(`,"mapping":%q`, mapping)
	}
	var res runResult
	if resp := do(t, "POST", base+"/v1/run", "", []byte(body+"}"), &res); resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("run %s: status %d: %s", name, resp.StatusCode, raw)
	}
	if res.Executed != int64(len(g.Tasks)) {
		t.Fatalf("run %s executed %d of %d tasks", name, res.Executed, len(g.Tasks))
	}
	return res, flowInfoOf(t, base, res.Flow)
}

// settleKernel runs never-seen flows of g with kernel until the kernel's
// choice has measured both widths settleAfter times, then one more, the
// first its settled choice compiles; it returns the widths the flows ran at
// and the choice.
func settleKernel(t *testing.T, base string, g *stf.Graph, kernel string) ([]int, kernelWidthInfo) {
	t.Helper()
	var widths []int
	for i := 0; i <= 2*settleAfter; i++ {
		res, _ := runNew(t, base, g, fmt.Sprintf("settle-%s-%d", kernel, i), kernel, "")
		widths = append(widths, res.Workers)
	}
	return widths, progressOf(t, base, "").Kernels[kernel]
}

// tableBytes is what a flow's programs share: its task table and accesses.
func tableBytes(g *stf.Graph) int64 {
	n := int64(len(g.Tasks)) * int64(unsafe.Sizeof(stf.Task{}))
	for i := range g.Tasks {
		n += int64(len(g.Tasks[i].Accesses)) * int64(unsafe.Sizeof(stf.Access{}))
	}
	return n
}

// A kernel measured faster at width 1 compiles a never-seen /v1/run flow at
// width 1 only: the flow holds its 1-worker program — the task table and
// one exec word per task — and runs on it, and its kernel's first flow,
// measured at neither width, ran at p. GET /v1/progress shows the choice.
func TestWidthNeverSeenFlowAtOne(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, Prune: true})
	g := graphs.Cholesky(8)
	widths, k := settleKernel(t, hs.URL, g, "noop")
	if fmt.Sprint(widths) != "[2 1 1 2 1]" || k.Workers != 1 || k.NarrowNSPerTask <= 0 || k.NarrowNSPerTask >= k.WideNSPerTask {
		t.Fatalf("flows ran at %v, kernel choice %+v: want [2 1 1 2 1] (p unmeasured, then each width twice) settled at 1, narrow the cheaper", widths, k)
	}
	for i := 0; i < 3; i++ {
		res, info := runNew(t, hs.URL, g, fmt.Sprintf("cold-%d", i), "noop", "")
		if want := tableBytes(g) + 4*int64(len(g.Tasks)); res.Workers != 1 || fmt.Sprint(info.ProgramWidths) != "[1]" || info.ProgramBytes != want {
			t.Errorf("never-seen flow %d ran at %d holding widths %v, %d program bytes; want 1, [1] and %d", i, res.Workers, info.ProgramWidths, info.ProgramBytes, want)
		}
	}
	if p := progressOf(t, hs.URL, ""); p.Cache.Misses != int64(len(widths)+3) || p.Cache.Hits != p.Cache.Misses {
		t.Errorf("cache %+v, want one miss and one hit per flow", p.Cache)
	}
}

// A kernel of 10 µs tasks, as in TestWidthDearKernelStaysWide, measures
// cheaper per task on two workers and keeps compiling new flows at p.
func TestWidthDearKernelKeepsNewFlowsWide(t *testing.T) {
	pause := func(*rio.Task, rio.WorkerID) { time.Sleep(10 * time.Microsecond) }
	_, hs := newTestServer(t, Config{Workers: 2, Kernels: map[string]rio.Kernel{"pause": pause}})
	g := graphs.Independent(32)
	if widths, k := settleKernel(t, hs.URL, g, "pause"); fmt.Sprint(widths) != "[2 1 1 2 2]" || k.Workers != 2 || k.WideNSPerTask >= k.NarrowNSPerTask {
		t.Fatalf("flows ran at %v, kernel choice %+v: want [2 1 1 2 2], settled at 2", widths, k)
	}
	for i := 0; i < 3; i++ {
		if res, info := runNew(t, hs.URL, g, fmt.Sprintf("dear-%d", i), "pause", ""); res.Workers != 2 || fmt.Sprint(info.ProgramWidths) != "[2]" {
			t.Errorf("never-seen flow %d of 10 µs tasks ran at %d holding widths %v, want 2 and [2]", i, res.Workers, info.ProgramWidths)
		}
	}
}

// A flow submitted at width 1 and then run on with a dear kernel compiles
// its p-program once its runs have cost as much as its submit compile, by
// the same rent-or-buy rule as the 1-worker one, then settles at p; the
// second compile is no cache miss.
func TestWidthWideCompiledForNarrowFlow(t *testing.T) {
	pause := func(*rio.Task, rio.WorkerID) { time.Sleep(10 * time.Microsecond) }
	s, hs := newTestServer(t, Config{Workers: 2, Kernels: map[string]rio.Kernel{"pause": pause}})
	g := graphs.Independent(32)
	runNew(t, hs.URL, g, "first", "pause", "") // at p: the kernel is unmeasured
	res, info := runNew(t, hs.URL, g, "second", "pause", "")
	if res.Workers != 1 || fmt.Sprint(info.ProgramWidths) != "[1]" {
		t.Fatalf("the kernel's second flow ran at %d holding widths %v, want the less measured width 1 and [1]", res.Workers, info.ProgramWidths)
	}
	misses := progressOf(t, hs.URL, "").Cache.Misses
	runUntilBoth(t, s, hs.URL, info.ID, "pause")
	var widths []int
	for i := 0; i < 10; i++ {
		widths = append(widths, runFlow(t, hs.URL, "", info.ID, "pause").Workers)
	}
	if last := widths[len(widths)-4:]; fmt.Sprint(last) != "[2 2 2 2]" {
		t.Errorf("run widths %v: a flow of 10 µs tasks held at 1 did not settle at 2", widths)
	}
	got := flowInfoOf(t, hs.URL, info.ID)
	if w := got.Widths["pause"]; w.Workers != 2 || fmt.Sprint(got.ProgramWidths) != "[1 2]" || got.ProgramBytes <= info.ProgramBytes {
		t.Errorf("flow info widths %+v, programs %v of %d bytes; want pause settled at 2, [1 2] and more than the submitted %d bytes",
			got.Widths, got.ProgramWidths, got.ProgramBytes, info.ProgramBytes)
	}
	if p := progressOf(t, hs.URL, ""); p.Cache.Misses != misses {
		t.Errorf("cache misses %d after the p-program's compile, want %d", p.Cache.Misses, misses)
	}
}

// A submitted mapping pins a /v1/run flow at p whatever its kernel's
// choice, and a server of one worker compiles every flow at 1.
func TestWidthPinnedOnSubmit(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, Prune: true})
	g := graphs.Cholesky(8)
	if _, k := settleKernel(t, hs.URL, g, "noop"); k.Workers != 1 {
		t.Fatalf("noop settled at %d, want 1", k.Workers)
	}
	if res, info := runNew(t, hs.URL, g, "pinned", "noop", "blockcyclic:1"); res.Workers != 2 || fmt.Sprint(info.ProgramWidths) != "[2]" {
		t.Errorf("a flow submitted with a mapping ran at %d holding widths %v, want 2 and [2]", res.Workers, info.ProgramWidths)
	}

	_, one := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 2*settleAfter+2; i++ {
		if res, info := runNew(t, one.URL, g, fmt.Sprintf("one-%d", i), "noop", ""); res.Workers != 1 || fmt.Sprint(info.ProgramWidths) != "[1]" {
			t.Fatalf("flow %d on a 1-worker server ran at %d holding widths %v", i, res.Workers, info.ProgramWidths)
		}
	}
}

// A /v1/run flow that preflight rejects answers 422, registers nothing and
// leaves no goroutine behind: the lowering beside the preflight is joined
// before the answer. A drain with a submit in flight completes, and the
// submit, admitted by no queue, answers 503.
func TestRunRejectedLeavesNothing(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	swapCertify(t, &eventLog{}, func(int) *rio.AnalysisReport {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return nil
	})
	s, hs := newTestServer(t, Config{Workers: 2, Verify: true})
	bad := []byte(`{"kernel":"noop","graph":{"name":"bad","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"R"}]},{"kernel":0,"accesses":[{"data":0,"mode":"W"}]}]}}`)
	do(t, "POST", hs.URL+"/v1/run", "", bad, nil) // the tenant and a client connection
	time.Sleep(20 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if resp := do(t, "POST", hs.URL+"/v1/run", "", bad, nil); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("rejected flow: status %d, want 422", resp.StatusCode)
		}
	}
	after := runtime.NumGoroutine()
	for i := 0; i < 200 && after > before; i++ {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines %d after 20 rejected runs, %d before", after, before)
	}
	if p := progressOf(t, hs.URL, ""); p.Flows != 0 || p.Cache.Misses != 0 || p.Cache.Hits != 0 {
		t.Errorf("flows %d, cache %+v after rejected runs, want nothing registered", p.Flows, p.Cache)
	}

	submitted := make(chan int, 1)
	go func() {
		submitted <- do(t, "POST", hs.URL+"/v1/run", "", graphJSON(t, graphs.Chain(8)), nil).StatusCode
	}()
	<-entered // the submit is certifying its program
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		if err != nil {
			t.Errorf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete with a submit in flight")
	}
	close(gate)
	if status := <-submitted; status != http.StatusServiceUnavailable {
		t.Errorf("submit in flight during the drain: status %d, want 503", status)
	}
}
