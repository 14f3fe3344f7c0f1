package rio_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rio"
)

// streamModels are the models the streaming tests sweep: the native
// in-order session plus the per-window fallback backends.
var streamModels = []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential}

// TestStreamChainAllModels runs the same unbounded chained flow — every
// window reads the accumulator the previous window wrote — through every
// model's streaming backend and checks the final value against the
// sequential recurrence. Cross-window reads are exactly what single-shot
// Run cannot express without re-submitting the whole history.
func TestStreamChainAllModels(t *testing.T) {
	const windows, perWindow = 40, 25
	for _, m := range streamModels {
		rt, err := rio.New(rio.Options{Model: m, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		st, ok := rt.(rio.Streamer)
		if !ok {
			t.Fatalf("%v: rio.New runtime does not implement Streamer", m)
		}
		var acc, want int64
		s, err := st.Stream(1, rio.StreamOptions{})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for w := 0; w < windows; w++ {
			for i := 0; i < perWindow; i++ {
				k := int64(w*perWindow + i)
				s.Submit(func() { atomic.AddInt64(&acc, k) }, rio.RW(0))
				want += k
			}
			if err := s.Flush(); err != nil {
				t.Fatalf("%v: flush %d: %v", m, w, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%v: close: %v", m, err)
		}
		if got := atomic.LoadInt64(&acc); got != want {
			t.Errorf("%v: acc = %d, want %d", m, got, want)
		}
		if s.Submitted() != windows*perWindow {
			t.Errorf("%v: Submitted = %d, want %d", m, s.Submitted(), windows*perWindow)
		}
		if s.Windows() != windows {
			t.Errorf("%v: Windows = %d, want %d", m, s.Windows(), windows)
		}
	}
}

// TestStreamWindowParallelism checks that tasks inside one window still run
// in dependency order while independent chains spread across workers: per
// data object the window's tasks must observe strictly increasing values.
func TestStreamWindowParallelism(t *testing.T) {
	const numData, windows, perData = 8, 30, 6
	rt, err := rio.New(rio.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rio.OpenStream(rt, numData, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, numData)
	var bad atomic.Int64
	for w := 0; w < windows; w++ {
		for r := 0; r < perData; r++ {
			for d := 0; d < numData; d++ {
				d := d
				expect := int64(w*perData + r)
				s.Submit(func() {
					if vals[d] != expect {
						bad.Add(1)
					}
					vals[d]++
				}, rio.RW(rio.DataID(d)))
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("flush %d: %v", w, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bad.Load(); n != 0 {
		t.Errorf("%d tasks observed out-of-order values", n)
	}
	for d, v := range vals {
		if v != windows*perData {
			t.Errorf("data %d: %d increments, want %d", d, v, windows*perData)
		}
	}
}

// TestStreamShapeCache: a periodic pipeline whose window shape repeats must
// compile once and replay the cached program for every later window.
func TestStreamShapeCache(t *testing.T) {
	eng, err := rio.NewEngine(rio.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Stream(4, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	const windows = 20
	for w := 0; w < windows; w++ {
		for d := 0; d < 4; d++ {
			s.Submit(func() { n.Add(1) }, rio.RW(rio.DataID(d)))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	hits, misses, entries := s.CacheStats()
	if misses != 1 || entries != 1 {
		t.Errorf("shape cache: misses = %d, entries = %d, want 1, 1", misses, entries)
	}
	if hits != windows-1 {
		t.Errorf("shape cache: hits = %d, want %d", hits, windows-1)
	}
	if n.Load() != windows*4 {
		t.Errorf("executed %d tasks, want %d", n.Load(), windows*4)
	}
}

// TestStreamShapeCacheDistinctShapes: windows with different access
// structure must not collide in the shape cache.
func TestStreamShapeCacheDistinctShapes(t *testing.T) {
	eng, err := rio.NewEngine(rio.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Stream(4, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 4)
	// Shape A: write 0, read 0 -> write 1. Shape B: independent writes.
	for w := 0; w < 6; w++ {
		if w%2 == 0 {
			s.Submit(func() { atomic.AddInt64(&vals[0], 1) }, rio.Write(0))
			s.Submit(func() { atomic.AddInt64(&vals[1], atomic.LoadInt64(&vals[0])) }, rio.Read(0), rio.Write(1))
		} else {
			s.Submit(func() { atomic.AddInt64(&vals[2], 1) }, rio.Write(2))
			s.Submit(func() { atomic.AddInt64(&vals[3], 1) }, rio.Write(3))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, misses, entries := s.CacheStats(); misses != 2 || entries != 2 {
		t.Errorf("shape cache: misses = %d, entries = %d, want 2, 2", misses, entries)
	}
}

// TestStreamAutoFlush: reaching MaxWindow flushes automatically.
func TestStreamAutoFlush(t *testing.T) {
	rt, err := rio.New(rio.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rio.OpenStream(rt, 1, rio.StreamOptions{MaxWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		s.Submit(func() { n.Add(1) }, rio.RW(0))
	}
	if got := s.Windows(); got != 6 { // 48 tasks auto-flushed in 6 windows of 8
		t.Errorf("auto-flushed %d windows, want 6", got)
	}
	if got := s.Pending(); got != 2 {
		t.Errorf("pending = %d, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 50 {
		t.Errorf("executed %d, want 50", n.Load())
	}
}

// TestStreamKernelTasks drives the allocation-free Task path.
func TestStreamKernelTasks(t *testing.T) {
	var sum atomic.Int64
	kern := func(tk *rio.Task, _ rio.WorkerID) { sum.Add(int64(tk.I * tk.J)) }
	eng, err := rio.NewEngine(rio.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Stream(2, rio.StreamOptions{Kernel: kern})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for w := 1; w <= 10; w++ {
		s.Task(0, w, 2, 0, rio.RW(0))
		s.Task(0, w, 3, 0, rio.RW(1))
		want += int64(w*2 + w*3)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != want {
		t.Errorf("kernel sum = %d, want %d", got, want)
	}
}

// TestStreamTaskWithoutKernel: Task on a kernel-less stream poisons it.
func TestStreamTaskWithoutKernel(t *testing.T) {
	rt, _ := rio.New(rio.Options{Workers: 2})
	s, err := rio.OpenStream(rt, 1, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if id := s.Task(0, 1, 2, 3, rio.RW(0)); id != -1 {
		t.Errorf("Task without kernel returned id %d, want NoTask", id)
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "Kernel") {
		t.Errorf("Close error = %v, want kernel requirement", err)
	}
}

// TestStreamStickyError: the first failing window poisons the stream;
// later submissions are dropped, and the error surfaces from every
// subsequent Flush, Drain and Close.
func TestStreamStickyError(t *testing.T) {
	for _, m := range streamModels {
		rt, err := rio.New(rio.Options{Model: m, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := rio.OpenStream(rt, 1, rio.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var after atomic.Int64
		s.Submit(func() { panic("boom") }, rio.RW(0))
		// The native backend's Flush is asynchronous (the window executes
		// while the producer records the next one), so the failure may
		// surface here or at the following Drain — both count.
		ferr := s.Flush()
		if derr := s.Drain(); ferr == nil {
			ferr = derr
		}
		if ferr == nil || !strings.Contains(ferr.Error(), "boom") {
			t.Fatalf("%v: flush+drain of panicking window: %v, want boom", m, ferr)
		}
		if id := s.Submit(func() { after.Add(1) }, rio.RW(0)); id != -1 {
			t.Errorf("%v: post-poison Submit returned id %d, want NoTask", m, id)
		}
		if err := s.Drain(); err == nil {
			t.Errorf("%v: Drain on poisoned stream returned nil", m)
		}
		if err := s.Close(); err == nil {
			t.Errorf("%v: Close on poisoned stream returned nil", m)
		}
		if s.Err() == nil {
			t.Errorf("%v: Err on poisoned stream returned nil", m)
		}
		if after.Load() != 0 {
			t.Errorf("%v: task ran after the stream was poisoned", m)
		}
	}
}

// TestStreamUseAfterClose: operations on a closed stream report closure.
func TestStreamUseAfterClose(t *testing.T) {
	rt, _ := rio.New(rio.Options{Workers: 2})
	s, err := rio.OpenStream(rt, 1, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Errorf("second Close: %v", err)
	}
	if id := s.Submit(func() {}, rio.RW(0)); id != -1 {
		t.Errorf("Submit after Close returned id %d", id)
	}
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Flush after Close: %v, want closed error", err)
	}
	if err := s.Drain(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Drain after Close: %v, want closed error", err)
	}
}

// TestStreamBlocksEngineRuns: while a native session is open, ordinary
// runs and a second session are rejected; Close releases the engine.
func TestStreamBlocksEngineRuns(t *testing.T) {
	eng, err := rio.NewEngine(rio.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Stream(1, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(1, func(sub rio.Submitter) {
		sub.Submit(func() {}, rio.RW(0))
	}); err == nil || !strings.Contains(err.Error(), "session") {
		t.Errorf("Run during open session: %v, want session error", err)
	}
	if _, err := eng.Stream(1, rio.StreamOptions{}); err == nil {
		t.Error("second concurrent session accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(1, func(sub rio.Submitter) {
		sub.Submit(func() {}, rio.RW(0))
	}); err != nil {
		t.Errorf("Run after Close: %v", err)
	}
}

// TestStreamWindowTimeout: Options.Timeout bounds each window of a native
// session; an overrunning window poisons the stream with a timeout error.
// Cancellation is cooperative (a task body already running finishes), so
// the slow task sleeps finitely while a second worker's dependency wait is
// the thing the timeout interrupts.
func TestStreamWindowTimeout(t *testing.T) {
	eng, err := rio.NewEngine(rio.Options{Workers: 2, Timeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Stream(1, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(func() { time.Sleep(250 * time.Millisecond) }, rio.RW(0)) // worker 0
	s.Submit(func() {}, rio.RW(0))                                     // worker 1, waits on task 0
	if err := s.Flush(); err != nil {
		t.Fatalf("flush returned synchronously with %v", err)
	}
	if err := s.Drain(); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Errorf("Drain = %v, want window timeout", err)
	}
	if cerr := s.Close(); cerr == nil {
		t.Error("Close after timeout returned nil")
	}
}

// TestStreamInvalidAccessPoisons: a malformed submission is caught at
// record time and poisons the stream without executing anything.
func TestStreamInvalidAccessPoisons(t *testing.T) {
	rt, _ := rio.New(rio.Options{Workers: 2})
	s, err := rio.OpenStream(rt, 2, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if id := s.Submit(func() {}, rio.RW(7)); id != -1 {
		t.Errorf("out-of-range access accepted with id %d", id)
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("Close = %v, want out-of-range diagnosis", err)
	}
}

// TestStreamSharedWorkerShapesTakeClosureWindows: a mapping with
// SharedWorker tasks cannot bake ownership into a compiled shape, and that
// observation alone selects the closure window path — compileShape caches a
// negative entry on the first window and every later window of the shape
// hits it. The claims prove the path ran: only closure replay resolves
// SharedWorker ownership.
func TestStreamSharedWorkerShapesTakeClosureWindows(t *testing.T) {
	const windows = 10
	for _, tc := range []struct {
		name    string
		mapping rio.Mapping
		shared  int64 // SharedWorker tasks per window
	}{
		{"all-shared", func(rio.TaskID) rio.WorkerID { return rio.SharedWorker }, 2},
		{"partial", rio.PartialMapping(
			func(rio.TaskID) rio.WorkerID { return 1 },
			func(id rio.TaskID) bool { return id%2 == 1 }), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := rio.NewEngine(rio.Options{Workers: 2, Mapping: tc.mapping})
			if err != nil {
				t.Fatal(err)
			}
			s, err := eng.Stream(2, rio.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var v0, v1 int64
			for w := 0; w < windows; w++ {
				s.Submit(func() { v0++ }, rio.RW(0))
				s.Submit(func() { v1 += v0 }, rio.Read(0), rio.RW(1))
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if want := int64(windows * (windows + 1) / 2); v0 != windows || v1 != want {
				t.Errorf("v0, v1 = %d, %d, want %d, %d", v0, v1, windows, want)
			}
			if hits, misses, entries := s.CacheStats(); misses != 1 || hits != windows-1 || entries != 1 {
				t.Errorf("negative shape entry: hits=%d misses=%d entries=%d, want %d, 1, 1", hits, misses, entries, windows-1)
			}
			p := eng.Progress()
			if got := p.Claimed(); got != tc.shared*windows {
				t.Errorf("claimed %d SharedWorker tasks, want %d", got, tc.shared*windows)
			}
		})
	}
}

// TestOpenStreamOnStreamer routes through the native path when available.
func TestOpenStreamOnStreamer(t *testing.T) {
	eng, err := rio.NewEngine(rio.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rio.OpenStream(eng, 1, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(func() {}, rio.RW(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := s.CacheStats(); misses != 1 {
		t.Errorf("OpenStream on an Engine took the fallback path (misses = %d)", misses)
	}
}

// errorsIsStream sanity-checks sticky errors compose with errors.Is on the
// public sentinel-free API (the error chain carries the cause verbatim).
func TestStreamErrorChain(t *testing.T) {
	sentinel := errors.New("task exploded")
	rt, _ := rio.New(rio.Options{Model: rio.Sequential})
	s, err := rio.OpenStream(rt, 1, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(func() { panic(sentinel) }, rio.RW(0))
	ferr := s.Flush()
	if ferr == nil || !strings.Contains(ferr.Error(), "task exploded") {
		t.Errorf("Flush = %v, want the panic cause in the chain", ferr)
	}
	_ = s.Close()
}
