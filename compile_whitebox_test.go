package rio

// White-box tests of the compiled-program cache's concurrency contract:
// singleflight deduplication of concurrent first callers, and the cache
// generation counter that keeps a SetMapping/Invalidate racing an
// in-flight compilation from inserting a stale program.

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"rio/internal/graphs"
	"rio/internal/stf"
	"rio/internal/verify"
)

// newTestEngine builds a 2-worker verifying engine for the cache tests.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Workers: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConcurrentFirstCallersCompileOnce is the singleflight contract: N
// goroutines racing Precompile on the same uncached graph must trigger
// exactly one compile+certify (one miss), the rest waiting and counting
// as hits, and every caller must get the same program.
func TestConcurrentFirstCallersCompileOnce(t *testing.T) {
	const callers = 32
	e := newTestEngine(t)
	g := graphs.Chain(64)

	var (
		start sync.WaitGroup
		wg    sync.WaitGroup
		gate  = make(chan struct{})
		got   [callers]*CompiledProgram
	)
	start.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			start.Done()
			<-gate
			cp, err := e.Precompile(g)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			got[i] = cp
		}(i)
	}
	start.Wait()
	close(gate)
	wg.Wait()

	hits, misses, entries := e.CacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 compile under %d concurrent first callers", misses, callers)
	}
	if hits != callers-1 {
		t.Errorf("hits = %d, want %d (every non-leader counts as a hit)", hits, callers-1)
	}
	if entries != 1 {
		t.Errorf("entries = %d, want 1", entries)
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different program than caller 0", i)
		}
	}
	// The shared program must actually run.
	if err := e.RunCompiled(got[0], func(*Task, WorkerID) {}); err != nil {
		t.Fatal(err)
	}
}

// holdCompile installs a testCompileDelay that blocks the first
// compilation until release is closed (later compilations — the retry
// after an invalidation — pass straight through) and counts attempts.
func holdCompile(t *testing.T) (entered, release chan struct{}, attempts *atomic.Int64) {
	t.Helper()
	entered = make(chan struct{})
	release = make(chan struct{})
	attempts = &atomic.Int64{}
	testCompileDelay = func(*Graph) {
		if attempts.Add(1) == 1 {
			close(entered)
			<-release
		}
	}
	t.Cleanup(func() { testCompileDelay = nil })
	return entered, release, attempts
}

// TestSetMappingDiscardsInflightCompile pins the generation-counter fix:
// a compile held open across a SetMapping must be thrown away — a
// program compiled under the old mapping must never enter the
// new-mapping cache — and redone under the new mapping.
func TestSetMappingDiscardsInflightCompile(t *testing.T) {
	e := newTestEngine(t)
	g := graphs.Chain(16)
	entered, release, attempts := holdCompile(t)

	single := func(stf.TaskID) stf.WorkerID { return 0 }
	done := make(chan struct{})
	var cp *CompiledProgram
	var runErr error
	go func() {
		defer close(done)
		cp, runErr = e.Precompile(g)
	}()
	<-entered            // leader is mid-compile under the cyclic default
	e.SetMapping(single) // flush + generation bump while it is in flight
	close(release)       // let the stale compile finish
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}

	if n := attempts.Load(); n != 2 {
		t.Errorf("compile attempts = %d, want 2 (stale compile discarded, then redone)", n)
	}
	// The program the caller got — and the one in the cache — must be the
	// one compiled under the *new* mapping: certify ownership against it.
	if rep := verify.Certify(g, cp, verify.Config{Mapping: single}); len(rep.Findings) != 0 {
		t.Errorf("returned program does not certify against the new mapping:\n%v", rep.Findings)
	}
	e.mu.Lock()
	cached := e.cache[g]
	e.mu.Unlock()
	if cached != cp {
		t.Errorf("cache holds a different program than the caller got")
	}
	if err := e.RunCompiled(cp, func(*Task, WorkerID) {}); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidateDiscardsInflightCompile: Invalidate racing a miss must
// likewise keep the in-flight program out of the cache (the caller's
// graph may have been mutated under it) and force a recompile.
func TestInvalidateDiscardsInflightCompile(t *testing.T) {
	e := newTestEngine(t)
	g := graphs.Chain(16)
	entered, release, attempts := holdCompile(t)

	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = e.Precompile(g)
	}()
	<-entered
	e.Invalidate(g)
	close(release)
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("compile attempts = %d, want 2 (invalidated compile discarded, then redone)", n)
	}
	if _, misses, entries := e.CacheStats(); misses != 1 || entries != 1 {
		t.Errorf("misses/entries = %d/%d, want 1/1 (only the post-invalidate compile lands)", misses, entries)
	}
}

// TestWaitersRetryAfterInvalidatedCompile: goroutines parked on a
// leader whose compile was invalidated must retry (and succeed) rather
// than receive the discarded program or a spurious error.
func TestWaitersRetryAfterInvalidatedCompile(t *testing.T) {
	const waiters = 8
	e := newTestEngine(t)
	g := graphs.Chain(16)
	entered, release, _ := holdCompile(t)

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, err := e.Precompile(g); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-entered

	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			cp, err := e.Precompile(g)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			if cp == nil {
				t.Errorf("waiter %d: nil program", i)
			}
		}(i)
	}
	e.SetMapping(func(stf.TaskID) stf.WorkerID { return 1 })
	close(release)
	<-leaderDone
	wg.Wait()

	if _, _, entries := e.CacheStats(); entries != 1 {
		t.Errorf("entries = %d, want 1", entries)
	}
}

// TestSetMappingRunGraphRaceStress interleaves SetMapping flushes with
// RunGraph executions and Precompile warming (the serving pattern) under
// the race detector: every run must execute the whole flow exactly once,
// and the survivor program must certify against the final mapping.
func TestSetMappingRunGraphRaceStress(t *testing.T) {
	const rounds = 30
	e := newTestEngine(t)
	g := graphs.Chain(32)
	single := func(stf.TaskID) stf.WorkerID { return 0 }

	var executed atomic.Int64
	kernel := func(*Task, WorkerID) { executed.Add(1) }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // warming goroutine: concurrent Precompile misses/hits
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := e.Precompile(g); err != nil {
				t.Errorf("precompile: %v", err)
				return
			}
		}
	}()
	go func() { // flushing goroutine: alternating mappings
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				e.SetMapping(single)
			} else {
				e.SetMapping(nil)
			}
		}
	}()
	for i := 0; i < rounds; i++ { // runner: compiled executions
		before := executed.Load()
		if err := e.RunGraph(g, kernel); err != nil {
			t.Fatal(err)
		}
		if got := executed.Load() - before; got != int64(len(g.Tasks)) {
			t.Fatalf("run %d executed %d tasks, want %d", i, got, len(g.Tasks))
		}
	}
	wg.Wait()

	e.SetMapping(single)
	cp, err := e.Precompile(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.Certify(g, cp, verify.Config{Mapping: single}); len(rep.Findings) != 0 {
		t.Errorf("final program does not certify against the final mapping:\n%v", rep.Findings)
	}
}

// TestLowerSelectsCanonicalWhenArmed pins both sides of the one selection
// in Engine.lower, on the shape of the ledger's skew-steal workload (RW
// chains, every task on worker 0 — every datum single-owner). Unarmed, the
// whole flow collapses to execs. Armed, the streams are the canonical
// lowering micro-op for micro-op — written out here by hand from
// Algorithm 1, not taken from the compiler — because any of these tasks may
// run on a thief.
func TestLowerSelectsCanonicalWhenArmed(t *testing.T) {
	const (
		workers = 3
		chains  = 4
		tasks   = 40
	)
	g := stf.NewGraph("skew", chains)
	for i := 0; i < tasks; i++ {
		g.Add(0, i, 0, 0, stf.RW(stf.DataID(i%chains)))
	}
	single := func(TaskID) WorkerID { return 0 }

	want := make([][]stf.Instr, workers)
	for i := 0; i < tasks; i++ {
		d, id := stf.DataID(i%chains), int32(i)
		want[0] = append(want[0],
			stf.Instr{Op: stf.OpGetWrite, Mode: stf.ReadWrite, Data: d, Task: id},
			stf.Instr{Op: stf.OpExec, Task: id},
			stf.Instr{Op: stf.OpTermWrite, Mode: stf.ReadWrite, Data: d, Task: id})
		for w := 1; w < workers; w++ {
			want[w] = append(want[w], stf.Instr{Op: stf.OpDeclareWrite, Mode: stf.ReadWrite, Data: d, Task: id})
		}
	}

	armed, err := NewEngine(Options{Workers: workers, Mapping: single, Steal: &StealPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := armed.lower(g, single)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Elided != nil || !reflect.DeepEqual(cp.Streams, want) {
		t.Errorf("armed lowering is not canonical: Elided = %v, streams %v", cp.Elided, cp.Streams)
	}

	unarmed, err := NewEngine(Options{Workers: workers, Mapping: single})
	if err != nil {
		t.Fatal(err)
	}
	cp, err = unarmed.lower(g, single)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ops() != tasks || len(cp.Streams[0]) != tasks {
		t.Errorf("unarmed lowering has %d micro-ops (%d on worker 0), want %d execs on worker 0", cp.Ops(), len(cp.Streams[0]), tasks)
	}
	// Task counts are the lowering's to keep: nobody declares less.
	for w := 1; w < workers; w++ {
		if got := cp.Stats[w].Declared; got != tasks {
			t.Errorf("worker %d declares %d tasks, want %d", w, got, tasks)
		}
	}
}
