package enginetest_test

import (
	"sync/atomic"
	"testing"

	"rio"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// runGraph executes g through the caching engine's compiled fast path
// with the oracle kernel and returns the trace.
func runGraph(t *testing.T, e *rio.Engine, g *stf.Graph) *enginetest.Trace {
	t.Helper()
	tr := enginetest.NewTrace(g)
	var clock atomic.Int64
	if err := e.RunGraph(g, enginetest.Kernel(tr, &clock)); err != nil {
		t.Fatalf("RunGraph: %v", err)
	}
	return tr
}

// The compiled-cache contract end to end, against the sequential oracle:
// the first RunGraph compiles (miss), the second reuses the cached
// streams (hit), SetMapping flushes the cache and the next run compiles
// fresh — every run sequentially consistent.
func TestCompiledCacheReuseAndInvalidation(t *testing.T) {
	g := graphs.LU(5)
	const p = 3
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}

	e, err := rio.NewEngine(rio.Options{Workers: p})
	if err != nil {
		t.Fatal(err)
	}

	// First run: cache miss, compiled under the default cyclic mapping.
	tr := runGraph(t, e, g)
	if err := enginetest.Compare(g, want, tr); err != nil {
		t.Fatalf("first run (cache miss): %v", err)
	}
	if h, m, n := e.CacheStats(); h != 0 || m != 1 || n != 1 {
		t.Fatalf("after first run: hits=%d misses=%d entries=%d, want 0/1/1", h, m, n)
	}

	// Second run: cache hit — no recompilation, same oracle outcome.
	tr = runGraph(t, e, g)
	if err := enginetest.Compare(g, want, tr); err != nil {
		t.Fatalf("second run (cache hit): %v", err)
	}
	if h, m, n := e.CacheStats(); h != 1 || m != 1 || n != 1 {
		t.Fatalf("after second run: hits=%d misses=%d entries=%d, want 1/1/1", h, m, n)
	}

	// Changing the mapping must invalidate: cached streams bake the old
	// task→worker assignment in. The next run recompiles and must still
	// match the sequential reference under the new mapping.
	e.SetMapping(sched.Block(len(g.Tasks), p))
	if h, m, n := e.CacheStats(); n != 0 {
		t.Fatalf("after SetMapping: hits=%d misses=%d entries=%d, want empty cache", h, m, n)
	}
	tr = runGraph(t, e, g)
	if err := enginetest.Compare(g, want, tr); err != nil {
		t.Fatalf("post-SetMapping run: %v", err)
	}
	if h, m, n := e.CacheStats(); h != 1 || m != 2 || n != 1 {
		t.Fatalf("after recompile: hits=%d misses=%d entries=%d, want 1/2/1", h, m, n)
	}
}

// The same checks with §3.5 pruning applied at compile time, plus the
// explicit pre-compiled path (Compile + RunCompiled) on a reused engine.
func TestCompiledCachePrunedAndExplicit(t *testing.T) {
	g := graphs.GEMM(4)
	const p = 4
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}

	e, err := rio.NewEngine(rio.Options{Workers: p, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		tr := runGraph(t, e, g)
		if err := enginetest.Compare(g, want, tr); err != nil {
			t.Fatalf("pruned run %d: %v", i, err)
		}
	}
	if h, m, _ := e.CacheStats(); h != 1 || m != 1 {
		t.Fatalf("pruned cache: hits=%d misses=%d, want 1/1", h, m)
	}

	// An explicitly compiled program with a non-default mapping runs
	// through the same engine without touching the cache.
	m := sched.BlockCyclic(p, 2)
	cp, err := rio.Compile(g, p, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Pruned {
		t.Error("Compile(prune=true) did not set Pruned")
	}
	tr := enginetest.NewTrace(g)
	var clock atomic.Int64
	if err := e.RunCompiled(cp, enginetest.Kernel(tr, &clock)); err != nil {
		t.Fatalf("RunCompiled: %v", err)
	}
	if err := enginetest.Compare(g, want, tr); err != nil {
		t.Fatalf("explicit compiled run: %v", err)
	}
	if h, m, n := e.CacheStats(); h != 1 || m != 1 || n != 1 {
		t.Fatalf("RunCompiled touched the cache: hits=%d misses=%d entries=%d", h, m, n)
	}
}

// NewEngine rejects non-InOrder models and propagates core validation.
func TestNewEngineValidation(t *testing.T) {
	if _, err := rio.NewEngine(rio.Options{Model: rio.Centralized, Workers: 2}); err == nil {
		t.Error("Centralized model accepted")
	}
	if _, err := rio.NewEngine(rio.Options{Workers: 0}); err == nil {
		t.Error("Workers=0 accepted")
	}
	// A partial mapping cannot be compiled: RunGraph must surface the
	// compile error rather than execute half a flow.
	e, err := rio.NewEngine(rio.Options{
		Workers: 2,
		Mapping: func(rio.TaskID) rio.WorkerID { return rio.SharedWorker },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunGraph(graphs.Independent(8), noop); err == nil {
		t.Error("SharedWorker mapping compiled")
	}
}
