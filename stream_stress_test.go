package rio_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"rio"
)

// TestStreamEpochRecycleStress pushes thousands of tiny windows through one
// native streaming session on the default wait, and the join between
// windows recycles the per-data state right behind them. Whether a
// hand-off here parks depends on timing; internal/core's
// TestSessionParkedWindows forces and observes a park in every window of
// both forms. What it proves, under -race:
//
//   - recycling never resurrects a stale wakeup: a task that ran on a
//     wakeup left over from a previous window would read its data before
//     the predecessor in the *current* window wrote it, and the in-task
//     oracle check below would trip;
//   - per-window results match the sequential oracle window by window — the
//     first task of window k+1 on each datum validates the final value
//     window k left there, so a single corrupted window is pinned to its
//     place instead of surfacing as a garbled final sum.
//
// The chains alternate owners (cyclic mapping, consecutive tasks on the
// same datum), so every hand-off is a cross-worker dependency — the
// worst case for the waiter registry and the best case for catching a
// stale wakeup.
func TestStreamEpochRecycleStress(t *testing.T) {
	const (
		numData = 4
		workers = 4
		chain   = 6 // RW tasks per datum per window -> 5 cross-worker hand-offs each
	)
	windows := 3000
	if testing.Short() {
		windows = 300
	}
	cyclic := rio.CyclicMapping(workers)
	for _, mode := range []struct {
		name    string
		mapping rio.Mapping
		shared  int // SharedWorker tasks per window
	}{
		// cached shape replay: recycle under compiled windows
		{"compiled", cyclic, 0},
		// a SharedWorker task per chain sends every window down closure
		// replay: recycle under the Submitter protocol path and its claims
		{"shared", rio.PartialMapping(cyclic, func(id rio.TaskID) bool { return id%chain == chain-1 }), numData},
	} {
		t.Run(mode.name, func(t *testing.T) {
			eng, err := rio.NewEngine(rio.Options{
				Workers: workers,
				Mapping: mode.mapping,
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := eng.Stream(numData, rio.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]int64, numData)   // runtime-managed data
			oracle := make([]int64, numData) // producer-side sequential model
			var mismatches atomic.Int64
			report := func(d int, got, want int64, w int) {
				if mismatches.Add(1) <= 5 {
					t.Errorf("window %d, data %d: got %d, want %d", w, d, got, want)
				}
			}
			for w := 0; w < windows; w++ {
				for d := 0; d < numData; d++ {
					d := d
					w := w
					// First link validates what the previous window left
					// behind: a stale wakeup in window w-1 would have let a
					// task skip its dependency and leave a wrong value here.
					carried := oracle[d]
					s.Submit(func() {
						if vals[d] != carried {
							report(d, vals[d], carried, w)
						}
						vals[d] = vals[d]*3 + int64(w&7) + 1
					}, rio.RW(rio.DataID(d)))
					oracle[d] = oracle[d]*3 + int64(w&7) + 1
					for c := 1; c < chain; c++ {
						c := c
						s.Submit(func() { vals[d] += int64(c * (d + 1)) }, rio.RW(rio.DataID(d)))
						oracle[d] += int64(c * (d + 1))
					}
				}
				if err := s.Flush(); err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for d := range vals {
				if vals[d] != oracle[d] {
					t.Errorf("final data %d: got %d, want %d", d, vals[d], oracle[d])
				}
			}
			if n := mismatches.Load(); n > 0 {
				t.Fatalf("%d window-boundary mismatches (stale wakeup or bad recycle)", n)
			}
			if got := s.Submitted(); got != int64(windows*numData*chain) {
				t.Errorf("Submitted = %d, want %d", got, windows*numData*chain)
			}
			// One shape throughout: its entry (negative for the shared
			// mapping) is taken once, then hit.
			if hits, misses, _ := s.CacheStats(); misses != 1 || hits != int64(windows-1) {
				t.Errorf("shape cache: hits=%d misses=%d, want %d, 1", hits, misses, windows-1)
			}
			p := eng.Progress()
			if got, want := p.Claimed(), int64(windows*mode.shared); got != want {
				t.Errorf("claimed %d SharedWorker tasks, want %d", got, want)
			}
		})
	}
}

// TestStreamShapeChurnStress alternates window shapes (different data
// subsets and dependency structures) across a long stream, so the shape
// cache recompiles, evicts and replays while windows recycle state under
// it. Final values are checked against the oracle.
func TestStreamShapeChurnStress(t *testing.T) {
	const numData = 8
	windows := 1200
	if testing.Short() {
		windows = 150
	}
	eng, err := rio.NewEngine(rio.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Stream(numData, rio.StreamOptions{MaxShapes: 4})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, numData)
	oracle := make([]int64, numData)
	for w := 0; w < windows; w++ {
		// 6 distinct shapes > MaxShapes 4, forcing eviction churn.
		shape := w % 6
		lo, hi := shape, shape+2
		for d := lo; d <= hi; d++ {
			d := d
			s.Submit(func() { vals[d]++ }, rio.RW(rio.DataID(d)))
			oracle[d]++
		}
		// A read-fan task: depends on every datum the window wrote.
		accs := []rio.Access{rio.RW(rio.DataID(lo))}
		for d := lo + 1; d <= hi; d++ {
			accs = append(accs, rio.Read(rio.DataID(d)))
		}
		lo0 := lo
		s.Submit(func() { vals[lo0] *= 2 }, accs...)
		oracle[lo] *= 2
		if err := s.Flush(); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for d := range vals {
		if vals[d] != oracle[d] {
			t.Errorf("data %d: got %d, want %d", d, vals[d], oracle[d])
		}
	}
	hits, misses, entries := s.CacheStats()
	if entries > 4 {
		t.Errorf("shape cache exceeded MaxShapes: %d entries", entries)
	}
	if misses < 6 {
		t.Errorf("expected recompiles under churn, got %d misses (%d hits)", misses, hits)
	}
}

// TestStreamFallbackOracleStress runs a shorter cross-window chained flow
// through the fallback backends under -race, so the windowed semantics are
// exercised on every model, not just the native session.
func TestStreamFallbackOracleStress(t *testing.T) {
	windows := 200
	if testing.Short() {
		windows = 40
	}
	for _, m := range []rio.Model{rio.Centralized, rio.Sequential} {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			rt, err := rio.New(rio.Options{Model: m, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			s, err := rio.OpenStream(rt, 2, rio.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var v0, v1, want0, want1 int64
			for w := 0; w < windows; w++ {
				s.Submit(func() { atomic.AddInt64(&v0, 1) }, rio.Write(0))
				s.Submit(func() { atomic.AddInt64(&v1, atomic.LoadInt64(&v0)) }, rio.Read(0), rio.RW(1))
				want0++
				want1 += want0
				if err := s.Flush(); err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if atomic.LoadInt64(&v1) != want1 {
				t.Errorf("v1 = %d, want %d", v1, want1)
			}
		})
	}
}

// TestStealStreamRetainsNoEvictedShape: an armed session must hold nothing
// per window shape — the steal tables ride on the compiled program, so a
// shape the stream's cache evicts is garbage, tables and cloned task table
// included. Every window here is a shape never seen before (64 tasks whose
// data are picked by the window number's bits), far more of them than
// MaxShapes; the heap, read after the collector has run twice, must stay
// flat once the stream is warm. A session-side cache keyed by program
// pointer (the parent's) grows by ≈14.5 KB per shape, ≈29 MB over this run.
// Every window is also checked against the sequential oracle.
func TestStealStreamRetainsNoEvictedShape(t *testing.T) {
	const (
		tasks   = 64
		numData = 2 * tasks
		warm    = 200
		shapes  = 2200
		slack   = 2 << 20
	)
	vals := make([]uint64, numData)
	kern := func(tk *rio.Task, _ rio.WorkerID) {
		v := vals[tk.Accesses[0].Data]*31 + uint64(tk.I) + 1
		if len(tk.Accesses) > 1 {
			v += vals[tk.Accesses[1].Data]
		}
		vals[tk.Accesses[0].Data] = v
	}
	eng, err := rio.NewEngine(rio.Options{Workers: 2, Steal: &rio.StealPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Stream(numData, rio.StreamOptions{MaxShapes: 4, MaxWindow: -1, Kernel: kern})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	oracle := make([]uint64, numData)
	var base uint64
	for w := 0; w < shapes; w++ {
		if w == warm {
			base = heap()
		}
		// Task i updates one of its two data, chosen by a bit of w, from the
		// datum its predecessor updated: a chain across both workers whose
		// access structure differs in every window.
		prev := rio.DataID(-1)
		for i := 0; i < tasks; i++ {
			d := rio.DataID(2*i + w>>(i%12)&1)
			v := oracle[d]*31 + uint64(i) + 1
			if prev < 0 {
				s.Task(0, i, 0, 0, rio.RW(d))
			} else {
				s.Task(0, i, 0, 0, rio.RW(d), rio.Read(prev))
				v += oracle[prev]
			}
			oracle[d], prev = v, d
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		for d := range vals {
			if vals[d] != oracle[d] {
				t.Fatalf("window %d: data %d = %x, sequential %x", w, d, vals[d], oracle[d])
			}
		}
	}
	if grown := int64(heap()) - int64(base); grown > slack {
		t.Errorf("heap grew by %d bytes over %d never-repeated shapes: an armed session retains evicted shapes", grown, shapes-warm)
	}
	if _, misses, entries := s.CacheStats(); entries > 4 || misses != shapes {
		t.Errorf("shape cache: %d entries (max 4), %d misses (want %d distinct shapes)", entries, misses, shapes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
