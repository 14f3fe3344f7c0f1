package core_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rio/internal/core"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

func compile(t *testing.T, g *stf.Graph, m stf.Mapping, p int, rel [][]bool) *stf.CompiledProgram {
	t.Helper()
	cp, err := stf.Compile(g, m, p, rel)
	if err != nil {
		t.Fatalf("compile %s p=%d: %v", g.Name, p, err)
	}
	return cp
}

// The compiled counterpart of TestSequentialConsistencyMatrix: every
// workload, worker count and mapping must produce the sequential reference
// result through the compiled execution loop too — both unpruned and with
// §3.5 pruning applied at compile time.
func TestCompiledMatchesSequentialMatrix(t *testing.T) {
	workloads := []*stf.Graph{
		graphs.Independent(200),
		graphs.RandomDeps(300, 16, 2, 1, 42),
		graphs.GEMM(4),
		graphs.LU(5),
		graphs.Cholesky(5),
		graphs.Wavefront(6, 6),
		reductionGraph(64),
	}
	for _, g := range workloads {
		for _, p := range []int{1, 2, 3, 7} {
			mappings := map[string]stf.Mapping{
				"cyclic": sched.Cyclic(p),
				"block":  sched.Block(len(g.Tasks), p),
			}
			for mname, m := range mappings {
				e := newEngine(t, core.Options{Workers: p, Mapping: m})
				cp := compile(t, g, m, p, nil)
				if err := enginetest.CheckCompiled(e, g, cp); err != nil {
					t.Errorf("%s p=%d mapping=%s: %v", g.Name, p, mname, err)
				}
				pruned := compile(t, g, m, p, sched.Relevant(g, m, p))
				if err := enginetest.CheckCompiled(e, g, pruned); err != nil {
					t.Errorf("%s p=%d mapping=%s pruned: %v", g.Name, p, mname, err)
				}
			}
		}
	}
}

// Compiled and closure replay must agree on the run statistics for a
// complete run; Declared comes from the compile-time stream counts.
func TestCompiledStats(t *testing.T) {
	g := graphs.LU(5)
	p := 3
	m := sched.Cyclic(p)
	e := newEngine(t, core.Options{Workers: p, Mapping: m})
	cp := compile(t, g, m, p, nil)
	if err := e.RunCompiled(cp, func(*stf.Task, stf.WorkerID) {}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Executed() != int64(len(g.Tasks)) {
		t.Errorf("executed %d, want %d", st.Executed(), len(g.Tasks))
	}
	if want := int64(len(g.Tasks) * (p - 1)); st.Declared() != want {
		t.Errorf("declared %d, want %d", st.Declared(), want)
	}
}

// A program narrower than its engine is a valid run on that many workers
// (run width): it must match the sequential oracle. A wider one, and a
// narrow one on an engine armed to steal, are rejected.
func TestCompiledValidation(t *testing.T) {
	g := graphs.Independent(10)
	cp := compile(t, g, sched.Cyclic(2), 2, nil)
	noop := func(*stf.Task, stf.WorkerID) {}

	e := newEngine(t, core.Options{Workers: 4})
	if err := enginetest.CheckCompiled(e, g, cp); err != nil {
		t.Errorf("2-worker program on a 4-worker engine: %v", err)
	}
	wide := compile(t, g, sched.Cyclic(8), 8, nil)
	if err := e.RunCompiled(wide, noop); err == nil || !strings.Contains(err.Error(), "compiled for 8 workers") {
		t.Errorf("wider than the engine: %v", err)
	}
	armed := newEngine(t, core.Options{Workers: 4, Steal: &stf.StealPolicy{}})
	if err := armed.RunCompiled(cp, noop); err == nil || !strings.Contains(err.Error(), "armed to steal") {
		t.Errorf("narrow program on an armed engine: %v", err)
	}
	e2 := newEngine(t, core.Options{Workers: 2})
	if err := e2.RunCompiled(nil, noop); err == nil || !strings.Contains(err.Error(), "nil compiled program") {
		t.Errorf("nil program: %v", err)
	}
	if err := e2.RunCompiled(cp, nil); err == nil || !strings.Contains(err.Error(), "nil kernel") {
		t.Errorf("nil kernel: %v", err)
	}
}

// A panicking kernel must abort the whole compiled run promptly: workers
// blocked in dependency waits unwind through the abort flag instead of
// waiting forever for the dead worker's terminates.
func TestCompiledPanicAborts(t *testing.T) {
	g := graphs.Chain(64) // task i writes data i, reads data i-1: full serialization
	p := 2
	m := sched.Cyclic(p)
	e := newEngine(t, core.Options{Workers: p, Mapping: m})
	cp := compile(t, g, m, p, nil)
	err := e.RunCompiled(cp, func(t *stf.Task, _ stf.WorkerID) {
		if t.ID == 7 {
			panic("kaboom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic propagated", err)
	}
}

// Cancellation semantics of RunCompiledContext mirror RunContext: a
// pre-canceled context refuses to start; cancellation mid-run unwinds
// workers blocked in dependency waits.
func TestCompiledCancellation(t *testing.T) {
	g := graphs.Chain(8)
	p := 2
	m := sched.Cyclic(p)
	e := newEngine(t, core.Options{Workers: p, Mapping: m})
	cp := compile(t, g, m, p, nil)
	noop := func(*stf.Task, stf.WorkerID) {}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunCompiledContext(canceled, cp, noop); err == nil || !strings.Contains(err.Error(), "not started") {
		t.Errorf("pre-canceled: %v", err)
	}

	// Mid-run: a fully serialized chain of sleeping tasks keeps the run in
	// flight long enough for the cancellation to land while workers are
	// blocked in dependency waits (same shape as TestFaultCancelMidRun).
	long := graphs.Chain(400)
	lcp := compile(t, long, m, p, nil)
	started := make(chan struct{})
	var once sync.Once
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	go func() {
		<-started
		cancelMid()
	}()
	err := e.RunCompiledContext(ctx, lcp, func(tk *stf.Task, _ stf.WorkerID) {
		if tk.ID == 0 {
			once.Do(func() { close(started) })
		}
		time.Sleep(500 * time.Microsecond)
	})
	if err == nil {
		t.Fatal("canceled compiled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
}

// A corrupted stream (unknown opcode) must fail the run, not be skipped.
func TestCompiledCorruptStream(t *testing.T) {
	g := graphs.Independent(4)
	cp := compile(t, g, sched.Cyclic(1), 1, nil)
	ins := slices.Collect(stf.Decode(cp.Streams[0]))
	ins[2].Op = stf.OpCode(15) // no opcode: the last a word holds
	cp.Streams[0] = stf.Encode(ins)
	e := newEngine(t, core.Options{Workers: 1})
	if err := e.RunCompiled(cp, func(*stf.Task, stf.WorkerID) {}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("err = %v, want corrupt-stream error", err)
	}
}

// A CompiledProgram is immutable: the same program must be runnable many
// times, and on a fresh engine of the same width.
func TestCompiledProgramReuse(t *testing.T) {
	g := graphs.GEMM(3)
	p := 2
	m := sched.Cyclic(p)
	cp := compile(t, g, m, p, nil)
	for i := 0; i < 3; i++ {
		e := newEngine(t, core.Options{Workers: p, Mapping: m})
		if err := enginetest.CheckCompiled(e, g, cp); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// goid is the calling goroutine's ID, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// A run's width is its program's: one engine alternates programs of width
// 1, 2 and p over one flow, and every run matches the sequential oracle and
// reports exactly its own workers. A width-1 run is the caller alone: every
// body runs on the calling goroutine, and no goroutine starts.
func TestNarrowRunWidth(t *testing.T) {
	const p = 4
	g := graphs.Cholesky(5)
	e := newEngine(t, core.Options{Workers: p})
	for round := 0; round < 3; round++ {
		for _, w := range []int{1, p, 2} {
			cp := compile(t, g, sched.Cyclic(w), w, sched.Relevant(g, sched.Cyclic(w), w))
			if err := enginetest.CheckCompiled(e, g, cp); err != nil {
				t.Fatalf("width %d: %v", w, err)
			}
			if n := len(e.Stats().Workers); n != w {
				t.Errorf("width %d: Stats has %d workers", w, n)
			}
			if n := len(e.Progress().Workers); n != w {
				t.Errorf("width %d: Progress has %d workers", w, n)
			}
			if got := e.Stats().Executed(); got != int64(len(g.Tasks)) {
				t.Errorf("width %d: executed %d of %d", w, got, len(g.Tasks))
			}
		}
	}

	one := compile(t, g, sched.Cyclic(1), 1, nil)
	caller, before := goid(), runtime.NumGoroutine()
	var elsewhere, spawned int
	err := e.RunCompiled(one, func(*stf.Task, stf.WorkerID) {
		if goid() != caller {
			elsewhere++
		}
		if runtime.NumGoroutine() > before {
			spawned++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if elsewhere != 0 || spawned != 0 {
		t.Errorf("width-1 run: %d bodies off the calling goroutine, %d with more than the %d goroutines before the run", elsewhere, spawned, before)
	}
}
