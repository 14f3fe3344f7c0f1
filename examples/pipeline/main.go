// Streaming pipeline: an unbounded task flow through one RIO session.
//
// The paper's engines execute a *finite* flow: record every task, then
// replay the whole flow on every worker. A service workload — a periodic
// pipeline processing batches forever — never ends, so "the whole flow"
// is unbounded and anything proportional to its length (the task table,
// per-data dependency counters, the workers' progress cursors) would grow
// without limit. The Stream API bounds all of it by the *window*: tasks
// are recorded into the current window, Flush joins the previous window and
// runs this one as one run over the session's per-data state, and the state
// the previous window touched is recycled at that join, so a million-task
// flow costs no more memory than a thousand-task one.
//
// This example pushes >10^5 small tasks through >100 windows of a fixed
// shape (the steady state of a periodic pipeline: the window compiles
// once and every later window replays the cached program), checks the
// result against the sequential oracle, and demonstrates the O(1) claim
// directly: live heap measured after the 10th window matches live heap
// after the last one, while the flow grows 50× longer in between.
//
// Run with: go run ./examples/pipeline [-workers 4] [-data 64] [-windows 500] [-chain 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"sync/atomic"
	"time"

	"rio"
	"rio/internal/stf"
)

func main() {
	workers := flag.Int("workers", 4, "worker count")
	data := flag.Int("data", 64, "data objects (pipeline channels)")
	windows := flag.Int("windows", 500, "windows to stream")
	chain := flag.Int("chain", 4, "tasks per channel per window (dependency-chain depth)")
	flag.Parse()
	if *windows < 2 || *data < 1 || *chain < 1 {
		log.Fatal("need -windows >= 2, -data >= 1, -chain >= 1")
	}

	// One counter per channel; every task bumps its channel's counter, so
	// within a window each channel carries a chain of RW dependencies and
	// the final value counts the whole flow's tasks on that channel.
	vals := make([]int64, *data)
	kern := func(t *stf.Task, _ rio.WorkerID) {
		atomic.AddInt64(&vals[t.Accesses[0].Data], 1)
	}

	// Chain-affine mapping: channel c's tasks (window-local IDs c·chain ..
	// c·chain+chain-1) all live on one worker, the natural sharding of a
	// periodic pipeline.
	chainLen := *chain
	p := *workers
	eng, err := rio.NewEngine(rio.Options{
		Workers: p,
		Mapping: func(id rio.TaskID) rio.WorkerID { return rio.WorkerID(int(id) / chainLen % p) },
	})
	if err != nil {
		log.Fatal(err)
	}
	s, err := eng.Stream(*data, rio.StreamOptions{Kernel: kern, MaxWindow: -1})
	if err != nil {
		log.Fatal(err)
	}

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	var heapWarm uint64
	warmAt := 10
	start := time.Now()
	for w := 0; w < *windows; w++ {
		for c := 0; c < *data; c++ {
			for l := 0; l < chainLen; l++ {
				s.Task(0, c, l, w, rio.RW(rio.DataID(c)))
			}
		}
		if err := s.Flush(); err != nil {
			log.Fatal(err)
		}
		if w+1 == warmAt {
			if err := s.Drain(); err != nil {
				log.Fatal(err)
			}
			heapWarm = heap()
		}
	}
	if err := s.Drain(); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	heapEnd := heap()
	hits, misses, entries := s.CacheStats()
	tasks := s.Submitted()
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}

	// Oracle: each channel saw chain tasks per window.
	want := int64(*windows) * int64(chainLen)
	for c, v := range vals {
		if v != want {
			log.Fatalf("channel %d: %d tasks executed, want %d", c, v, want)
		}
	}

	fmt.Printf("streamed %d tasks over %d windows on %d workers in %v (%.0f ns/task, %.2f Mtasks/s)\n",
		tasks, s.Windows(), p, wall.Round(time.Millisecond),
		float64(wall.Nanoseconds())/float64(tasks), float64(tasks)/wall.Seconds()/1e6)
	fmt.Printf("shape cache: %d compiled, %d replayed from cache (%.1f%% hit rate)\n",
		misses, hits, 100*float64(hits)/float64(hits+misses))
	fmt.Printf("live heap after window %d: %.1f KiB; after window %d: %.1f KiB (Δ %+.1f KiB, cache entries %d)\n",
		warmAt, float64(heapWarm)/1024, *windows, float64(heapEnd)/1024,
		(float64(heapEnd)-float64(heapWarm))/1024, entries)
	growth := float64(heapEnd) - float64(heapWarm)
	perTask := growth / float64(tasks-int64(warmAt**data*chainLen))
	if growth <= 0 {
		fmt.Println("per-data state is O(1) in flow length: the heap did not grow past warmup")
	} else {
		fmt.Printf("heap grew %.2f B/task past warmup (GC noise; the session allocates nothing per window in steady state)\n", perTask)
	}
}
