package main

import (
	"fmt"
	"math/rand"
	"time"

	"rio"
)

// config is the machine sizing shared by all workloads: Workers =
// min(nproc, 4) engine workers, at most nproc client connections.
type config struct {
	workers int
	clients int
	seed    int64
	size    sizing
}

// sizing fixes every operation count. Rounds are fixed counts, not fixed
// durations, so task counts, allocations and heap repeat exactly; the run
// length only decides how many rounds fit.
type sizing struct {
	fineTasks, fineOps       int
	luTiles, luOps           int
	skewTasks, skewOps       int
	warmTiles                int
	warmOpen, warmClosed     int
	warmRate                 float64 // open-loop arrival rate, req/s
	coldLayers, coldWidth    int
	coldOps                  int
	windowOps                int
	seqReps                  int // sequential-baseline runs per round
	minRounds, maxRounds     int
	fineIters, luIters       int
	skewIters, windowIters   int
	oracleWindows, probeReps int
	minSetups, maxSetups     int
}

func fullSize() sizing {
	return sizing{
		fineTasks: 65536, fineOps: 32, fineIters: 64,
		luTiles: 20, luOps: 64, luIters: 1000,
		skewTasks: 8192, skewOps: 12, skewIters: 2000,
		warmTiles: 12, warmOpen: 200, warmClosed: 1200, warmRate: 1000,
		coldLayers: 30, coldWidth: 50, coldOps: 8,
		windowOps: 1024, windowIters: 100,
		seqReps: 3, minRounds: 5, maxRounds: 1024,
		oracleWindows: 16, probeReps: 5,
		minSetups: 5, maxSetups: 50,
	}
}

// Stream-window geometry: 32 chains × 8 steps = 256 tasks, 4 shapes.
const (
	windowChains = 32
	windowDepth  = 8
	windowShapeN = 4
	windowData   = 64
)

// roundResult is what one fixed-count round of a workload measured.
type roundResult struct {
	lat       []float64     // per-operation latency, µs
	tasks     int64         // tasks executed while CPU time was metered: over the whole round, unless cpu is set
	tputTasks int64         // tasks executed in the throughput phase
	tputWall  time.Duration // wall time of the throughput phase
	cpu       time.Duration // process CPU time, from a workload that meters only part of its round
	attempted int
	failed    int
}

// instance is one set-up workload: its inputs are generated, its engine or
// server is built and warm, and round can be called repeatedly.
type instance struct {
	flow    *rio.Graph  // one operation's task flow
	kernel  rio.Kernel  // timed kernel
	opts    rio.Options // engine options of the timed path; a nil Mapping is the cyclic default
	closure bool        // timed path is closure replay, not compiled replay

	prepare func()                              // untimed input generation before a round
	round   func(tr *tracer, r int) roundResult // one fixed-count round
	after   func(tr *tracer)                    // untimed extra spans after a traced round
	check   func() (attempted, failed int)      // correctness oracle
	counts  func() map[string]float64           // workload-specific layer counts
	close   func()
}

type workload struct {
	name  string
	why   string
	build func(c *config) (*instance, error)
}

var workloads = []workload{
	{"replay-fine", "compiled replay of 65536 fine tasks with no cross-worker edges: pure unroll/declare/exec cost, no waits, no server, no compile", buildReplayFine},
	{"lu-closure", "closure replay of a tiled-LU flow with the divergence guard on: per-task guard hash and real cross-worker RAW/WAR waits", buildLUClosure},
	{"skew-steal", "all tasks mapped to one worker with stealing armed: the armed hot path and how much of the skew stealing recovers", buildSkewSteal},
	{"serve-warm", "cache-hit requests through rio-serve, open loop for latency then closed loop for capacity: HTTP, JSON, queue hand-off, fixed run cost", buildServeWarm},
	{"serve-cold", "every request submits a never-seen flow: parse, validate, hash, preflight, compile, queue, replay, and heap retained per flow", buildServeCold},
	{"stream-windows", "256-task windows through a Stream session, all shape-cache hits: record cost, fingerprint, epoch barrier, per-shape replay", buildStreamWindows},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// cacheHitRatio is the share of ops timed operations that ran without
// compiling, from the compiled-program cache's counter deltas: each run
// looks its program up once (a hit), and an operation that had to compile
// first adds a miss.
func cacheHitRatio(hits, misses, ops int64) float64 {
	return ratio(float64(hits-misses), float64(ops))
}

func sequentialEngine() (rio.Runtime, error) {
	return rio.New(rio.Options{Model: rio.Sequential, NoAccounting: true})
}

// engineInstance builds a workload whose operation is one run of flow on an
// in-order engine, through closure replay or compiled replay.
func engineInstance(c *config, flow *rio.Graph, opts rio.Options, closure bool, ops int) (*instance, error) {
	opts.Workers = c.workers
	opts.NoAccounting = true
	eng, err := rio.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	run := func(k rio.Kernel) error {
		if closure {
			return eng.Run(flow.NumData, replay(flow, k))
		}
		return eng.RunGraph(flow, k)
	}
	kernel := newCells(c.workers, c.seed).spinKernel()
	if err := run(kernel); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	n := int64(len(flow.Tasks))
	hits0, misses0, _ := eng.CacheStats()
	inst := &instance{flow: flow, kernel: kernel, opts: opts, closure: closure, close: func() {}}
	var done int64
	inst.round = func(tr *tracer, r int) roundResult {
		res := roundResult{lat: make([]float64, 0, ops), attempted: ops}
		done += int64(ops)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			start := time.Now()
			err := run(kernel)
			end := time.Now()
			res.lat = append(res.lat, micros(end.Sub(start)))
			tr.add("op", int64(r*ops+i), -1, start, end)
			if p := eng.Progress(); err != nil || p.Executed() != n {
				res.failed++
			}
		}
		res.tputWall = time.Since(t0)
		res.tasks = n * int64(ops)
		res.tputTasks = res.tasks
		return res
	}
	inst.check = func() (int, int) {
		par, seq := &fold{}, &fold{}
		par.reset(flow.NumData, c.seed)
		seq.reset(flow.NumData, c.seed)
		ref, err := sequentialEngine()
		if err != nil || run(par.kernel) != nil || ref.Run(flow.NumData, replay(flow, seq.kernel)) != nil || !par.equal(seq) {
			return 1, 1
		}
		return 1, 0
	}
	inst.counts = func() map[string]float64 {
		hits, misses, _ := eng.CacheStats()
		return map[string]float64{"rio.cache_hit_ratio": cacheHitRatio(hits-hits0, misses-misses0, done)}
	}
	return inst, nil
}

func buildReplayFine(c *config) (*instance, error) {
	flow := chainFlow("fine", c.size.fineTasks, 256, c.size.fineIters)
	return engineInstance(c, flow, rio.Options{}, false, c.size.fineOps)
}

func buildLUClosure(c *config) (*instance, error) {
	return engineInstance(c, luFlow(c.size.luTiles, c.size.luIters), rio.Options{}, true, c.size.luOps)
}

func buildSkewSteal(c *config) (*instance, error) {
	flow := chainFlow("skew", c.size.skewTasks, 64, c.size.skewIters)
	single := func(rio.TaskID) rio.WorkerID { return 0 }
	return engineInstance(c, flow, rio.Options{Mapping: single, Steal: &rio.StealPolicy{}}, false, c.size.skewOps)
}

// buildStreamWindows: one operation records a 256-task window with
// Stream.Task and publishes it with Flush; the session stays open across
// rounds and every round ends with Drain.
func buildStreamWindows(c *config) (*instance, error) {
	shapes := windowShapes(rand.New(rand.NewSource(c.seed)), windowShapeN, windowChains, windowData)
	workers := c.workers
	// Task t of a window belongs to chain t mod 32; a chain stays on one worker.
	mapping := func(id rio.TaskID) rio.WorkerID { return rio.WorkerID(int(id) % windowChains % workers) }
	opts := rio.Options{Workers: workers, Mapping: mapping, NoAccounting: true}
	iters := c.size.windowIters
	record := func(st *rio.Stream, shape []rio.DataID, op int) {
		for step := 0; step < windowDepth; step++ {
			for _, d := range shape {
				st.Task(0, op, step, iters, rio.RW(d))
			}
		}
	}
	open := func(rt rio.Runtime, k rio.Kernel) (*rio.Stream, error) {
		return rio.OpenStream(rt, windowData, rio.StreamOptions{MaxWindow: -1, Kernel: k})
	}
	eng, err := rio.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	kernel := newCells(workers, c.seed).spinKernel()
	st, err := open(eng, kernel)
	if err != nil {
		return nil, err
	}
	for s := range shapes { // warm-up: fill the shape cache
		record(st, shapes[s], s)
		if err := st.Flush(); err != nil {
			return nil, err
		}
	}
	if err := st.Drain(); err != nil {
		return nil, err
	}
	hits0, misses0, _ := st.CacheStats()
	ops := c.size.windowOps
	const perWindow = windowChains * windowDepth
	inst := &instance{
		flow: windowFlow(shapes[0], windowDepth, windowData, iters), kernel: kernel, opts: opts,
		close: func() { st.Close() },
	}
	inst.round = func(tr *tracer, r int) roundResult {
		res := roundResult{lat: make([]float64, 0, ops), attempted: ops}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			start := time.Now()
			record(st, shapes[i%len(shapes)], i)
			mid := time.Now()
			err := st.Flush()
			end := time.Now()
			res.lat = append(res.lat, micros(end.Sub(start)))
			if tr != nil {
				op := int64(r*ops + i)
				p := tr.add("op", op, -1, start, end)
				tr.add("stream.record", op, p, start, mid)
				tr.add("stream.flush", op, p, mid, end)
			}
			if err != nil {
				res.failed++
			}
		}
		if err := st.Drain(); err != nil {
			res.failed = ops
		}
		res.tputWall = time.Since(t0)
		res.tasks = int64(ops) * perWindow
		res.tputTasks = res.tasks
		return res
	}
	inst.check = func() (int, int) {
		results := [2]*fold{{}, {}}
		ref, err := sequentialEngine()
		if err != nil {
			return 1, 1
		}
		par, err := rio.NewEngine(opts)
		if err != nil {
			return 1, 1
		}
		for i, rt := range []rio.Runtime{par, ref} {
			results[i].reset(windowData, c.seed)
			s, err := open(rt, results[i].kernel)
			if err != nil {
				return 1, 1
			}
			for w := 0; w < c.size.oracleWindows; w++ {
				record(s, shapes[w%len(shapes)], w)
				s.Flush()
			}
			if s.Close() != nil {
				return 1, 1
			}
		}
		if !results[0].equal(results[1]) {
			return 1, 1
		}
		return 1, 0
	}
	inst.counts = func() map[string]float64 {
		hits, misses, _ := st.CacheStats()
		return map[string]float64{"rio.shape_hit_ratio": ratio(float64(hits-hits0), float64(hits-hits0+misses-misses0))}
	}
	return inst, nil
}
