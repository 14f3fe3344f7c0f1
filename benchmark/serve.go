package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"rio"
	"rio/internal/server"
	"rio/internal/server/ingest"
)

// serveEnv is an in-process rio-serve at its shipped defaults (prune on,
// verify off, queue 64, timeout 30 s) behind an httptest listener, plus the
// client the load generator shares.
type serveEnv struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	fold   fold // state of the "fold" oracle kernel registered with the server
}

func newServeEnv(c *config, maxFlows int) *serveEnv {
	e := &serveEnv{}
	e.srv = server.New(server.Config{
		Workers:  c.workers,
		Prune:    true,
		MaxFlows: maxFlows,
		Kernels:  map[string]rio.Kernel{"fold": func(t *rio.Task, w rio.WorkerID) { e.fold.kernel(t, w) }},
		Logf:     func(string, ...any) {},
	})
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: c.clients, MaxIdleConnsPerHost: c.clients, DisableCompression: true},
	}
	return e
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Drain(ctx) // an expired drain only cancels runs; the listener closes either way
	e.client.CloseIdleConnections()
	e.ts.Close()
}

func (e *serveEnv) do(method, path string, body []byte) (int, []byte, error) {
	return e.doAs(server.DefaultTenant, method, path, body)
}

func (e *serveEnv) doAs(tenant, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(server.TenantHeader, tenant)
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// runReply is the part of the service's run response the benchmark reads.
type runReply struct {
	Executed int64 `json:"executed"`
	WallNS   int64 `json:"wall_ns"`
	QueueNS  int64 `json:"queue_ns"`
}

// request sends one run request and records its spans. Latency counts from
// due when the request had a scheduled send time, from the actual send
// otherwise. A request fails on a transport error, a non-200 status
// (refused requests included) or an executed count other than tasks.
func (e *serveEnv) request(tr *tracer, op int64, due time.Time, path string, body []byte, tasks int) (lat float64, status int, ok bool) {
	sent := time.Now()
	status, data, err := e.do("POST", path, body)
	end := time.Now()
	var rep runReply
	ok = err == nil && status == http.StatusOK && json.Unmarshal(data, &rep) == nil && rep.Executed == int64(tasks)
	start := sent
	if !due.IsZero() {
		start = due
	}
	if tr != nil && ok {
		p := tr.add("op", op, -1, start, end)
		if !due.IsZero() {
			tr.add("gen.late", op, p, due, sent)
		}
		// The response carries durations, not timestamps: centre the
		// server's queue+run interval inside the client's send→receive one.
		queue, run := time.Duration(rep.QueueNS), time.Duration(rep.WallNS)
		over := max(end.Sub(sent)-queue-run, 0)
		q0 := sent.Add(over / 2)
		tr.add("server.queue", op, p, q0, q0.Add(queue))
		tr.add("server.run", op, p, q0.Add(queue), q0.Add(queue+run))
		tr.observe("server.http_overhead", micros(over))
	}
	return micros(end.Sub(start)), status, ok
}

// openLoop sends n requests on a fixed schedule of rate per second over
// clients connections, whatever the responses do, and returns when all
// have completed. do receives each request's scheduled send time.
func openLoop(n int, rate float64, clients int, do func(i int, due time.Time)) {
	start := time.Now().Add(time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for j := 0; j < clients; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := j; i < n; i += clients {
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				do(i, due)
			}
		}()
	}
	wg.Wait()
}

// closedLoop has clients callers each send their next request when the
// previous one completed, n requests in all, and returns the wall time.
func closedLoop(n, clients int, do func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for j := 0; j < clients; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// cacheStats reads the default tenant engine's compiled-program cache
// counters through GET /v1/progress.
func (e *serveEnv) cacheStats() (hits, misses int64) {
	var info struct {
		Cache struct{ Hits, Misses int64 }
	}
	if _, data, err := e.do("GET", "/v1/progress", nil); err == nil {
		json.Unmarshal(data, &info) // a malformed reply leaves zeros, which the assertion rejects
	}
	return info.Cache.Hits, info.Cache.Misses
}

// foldCheck runs one request with the order-sensitive fold kernel and
// compares the server's data with a rio.Sequential run of the same flow.
func (e *serveEnv) foldCheck(c *config, flow *rio.Graph, path string, body []byte) bool {
	e.fold.reset(flow.NumData, c.seed)
	_, _, ok := e.request(nil, 0, time.Time{}, path, body, len(flow.Tasks))
	seq := &fold{}
	seq.reset(flow.NumData, c.seed)
	ref, err := sequentialEngine()
	return ok && err == nil && ref.Run(flow.NumData, replay(flow, seq.kernel)) == nil && e.fold.equal(seq)
}

// submitProbe times POST /v1/flows of a never-seen flow and of the same
// bytes again (parse + hash + dedup hit). It acts for a tenant of its own,
// so the default tenant's cache counters see only the workload's requests.
func (e *serveEnv) submitProbe(tr *tracer, body []byte) {
	for _, name := range []string{"server.submit", "server.resubmit"} {
		start := time.Now()
		status, _, err := e.doAs("probe", "POST", "/v1/flows", body)
		if err == nil && status == http.StatusOK {
			tr.add(name, 0, -1, start, time.Now())
		}
	}
}

// hitRatio is cacheHitRatio of the ops operations sent since the counters
// read hits0/misses0.
func (e *serveEnv) hitRatio(hits0, misses0, ops int64) float64 {
	hits, misses := e.cacheStats()
	return cacheHitRatio(hits-hits0, misses-misses0, ops)
}

// buildServeWarm: one tenant, one pre-registered 364-task tile flow, kernel
// noop. Phase A is an open loop at a fixed rate for latency, phase B a
// closed loop of nproc clients for capacity.
func buildServeWarm(c *config) (*instance, error) {
	flow := choleskyFlow(c.size.warmTiles, 1)
	env := newServeEnv(c, 0)
	status, data, err := env.do("POST", "/v1/flows", encodeFlow(flow, ""))
	var info struct{ ID string }
	if err != nil || status != http.StatusOK || json.Unmarshal(data, &info) != nil {
		env.close()
		return nil, fmt.Errorf("registering the warm flow: status %d: %v: %s", status, err, data)
	}
	path := "/v1/flows/" + info.ID + "/run"
	body := []byte(`{"kernel":"noop"}`)
	tasks := len(flow.Tasks)
	if _, _, ok := env.request(nil, 0, time.Time{}, path, body, tasks); !ok {
		env.close()
		return nil, fmt.Errorf("warm-up request failed")
	}
	hits0, misses0 := env.cacheStats()
	nA, nB := c.size.warmOpen, c.size.warmClosed
	var done int64
	inst := &instance{flow: flow, kernel: noopKernel, opts: rio.Options{Workers: c.workers, Prune: true}, close: env.close}
	inst.round = func(tr *tracer, r int) roundResult {
		res := roundResult{lat: make([]float64, nA), attempted: nA + nB}
		done += int64(nA + nB)
		var failed, refused atomic.Int64
		base := int64(r * (nA + nB))
		cpu0 := cpuTime()
		openLoop(nA, c.size.warmRate, c.clients, func(i int, due time.Time) {
			lat, _, ok := env.request(tr, base+int64(i), due, path, body, tasks)
			res.lat[i] = lat
			if !ok {
				failed.Add(1)
			}
		})
		// CPU per task is metered at the fixed rate of phase A: in phase B it
		// follows the capacity, which tasks_per_s already reports.
		res.cpu, res.tasks = cpuTime()-cpu0, int64(nA)*int64(tasks)
		res.tputWall = closedLoop(nB, c.clients, func(i int) {
			_, status, ok := env.request(tr, base+int64(nA+i), time.Time{}, path, body, tasks)
			if !ok {
				failed.Add(1)
			}
			if status == http.StatusTooManyRequests {
				refused.Add(1)
			}
		})
		tr.count("server.closed_loop_requests", int64(nB))
		tr.count("server.refused", refused.Load())
		res.failed = int(failed.Load())
		res.tputTasks = int64(nB) * int64(tasks)
		return res
	}
	probes := 0
	inst.after = func(tr *tracer) {
		probe := *flow
		probe.Name = fmt.Sprintf("%s-probe-%d", flow.Name, probes)
		probes++
		env.submitProbe(tr, encodeFlow(&probe, ""))
	}
	inst.counts = func() map[string]float64 {
		return map[string]float64{"rio.cache_hit_ratio": env.hitRatio(hits0, misses0, done)}
	}
	inst.check = func() (int, int) {
		// Every request must have been served from the compiled-program cache.
		if env.hitRatio(hits0, misses0, done) != 1 || !env.foldCheck(c, flow, path, []byte(`{"kernel":"fold"}`)) {
			return 1, 1
		}
		return 1, 0
	}
	return inst, nil
}

// buildServeCold: a closed loop of one client in which every request is a
// POST /v1/run of a flow the server has never seen.
func buildServeCold(c *config) (*instance, error) {
	rng := rand.New(rand.NewSource(c.seed))
	serial := 0
	next := func() *rio.Graph {
		serial++
		return layeredFlow(rng, fmt.Sprintf("cold-%d-%d", c.seed, serial), c.size.coldLayers, c.size.coldWidth)
	}
	ops := c.size.coldOps
	tasks := c.size.coldLayers * c.size.coldWidth
	// Every flow stays registered: the table must hold the whole corpus.
	env := newServeEnv(c, (c.size.maxRounds+2)*(ops+2))
	first := next()
	if _, status, ok := env.request(nil, 0, time.Time{}, "/v1/run", encodeFlow(first, ""), tasks); !ok {
		env.close()
		return nil, fmt.Errorf("warm-up request failed with status %d", status)
	}
	hits0, misses0 := env.cacheStats()
	bodies := make([][]byte, ops)
	var done, base int64 // operations sent so far; op_id of the last round's first
	inst := &instance{flow: first, kernel: noopKernel, opts: rio.Options{Workers: c.workers, Prune: true}, close: env.close}
	inst.prepare = func() {
		for i := range bodies {
			bodies[i] = encodeFlow(next(), "")
		}
	}
	inst.round = func(tr *tracer, r int) roundResult {
		res := roundResult{lat: make([]float64, ops), attempted: ops}
		done += int64(ops)
		base = int64(r * ops)
		res.tputWall = closedLoop(ops, 1, func(i int) {
			lat, _, ok := env.request(tr, base+int64(i), time.Time{}, "/v1/run", bodies[i], tasks)
			res.lat[i] = lat
			if !ok {
				res.failed++
			}
		})
		res.tasks = int64(ops) * int64(tasks)
		res.tputTasks = res.tasks
		return res
	}
	shadowEng, err := rio.NewEngine(rio.Options{Workers: c.workers, NoAccounting: true})
	if err != nil {
		env.close()
		return nil, err
	}
	inst.after = func(tr *tracer) {
		// The shadow pipeline replays each body of the round in process, one
		// stage per layer and under the request's op_id, so the stage times
		// can be set against the HTTP latency of the same bytes.
		for i, body := range bodies {
			shadow(tr, base+int64(i), shadowEng, body, c.workers)
		}
		env.submitProbe(tr, encodeFlow(next(), ""))
	}
	inst.counts = func() map[string]float64 {
		return map[string]float64{"rio.cache_hit_ratio": env.hitRatio(hits0, misses0, done)}
	}
	inst.check = func() (int, int) {
		// Every request must have compiled its flow: none was in the cache.
		g := next()
		if env.hitRatio(hits0, misses0, done) != 0 || !env.foldCheck(c, g, "/v1/run", encodeFlow(g, "fold")) {
			return 1, 1
		}
		return 1, 0
	}
	return inst, nil
}

// shadow runs the submission pipeline on body outside the server — parse,
// preflight, compile, certify, replay — under one parent span.
func shadow(tr *tracer, op int64, eng *rio.Engine, body []byte, workers int) {
	type stage struct {
		name       string
		start, end time.Time
	}
	var stages []stage
	timed := func(name string, f func() error) bool {
		start := time.Now()
		err := f()
		stages = append(stages, stage{name, start, time.Now()})
		return err == nil
	}
	var sub *ingest.Submission
	var cp *rio.CompiledProgram
	t0 := time.Now()
	ok := timed("ingest.parse", func() (err error) { sub, err = ingest.Parse(bytes.NewReader(body), workers); return }) &&
		timed("analyze.preflight", func() error {
			_, err := ingest.Preflight(sub, rio.PreflightAccess|rio.PreflightMapping)
			return err
		}) &&
		timed("stf.compile", func() (err error) { cp, err = rio.Compile(sub.Graph, workers, nil, true); return }) &&
		timed("verify.certify", func() error {
			if rep := rio.Verify(sub.Graph, cp, nil, nil); rep.Reject() {
				return fmt.Errorf("certificate rejected")
			}
			return nil
		}) &&
		timed("core.run_compiled", func() error { return eng.RunCompiled(cp, noopKernel) })
	if !ok {
		return
	}
	p := tr.add("shadow", op, -1, t0, time.Now())
	sum := 0.0
	for _, s := range stages {
		tr.add(s.name, op, p, s.start, s.end)
		if s.name != "verify.certify" { // the server does not certify at its defaults
			sum += micros(s.end.Sub(s.start))
		}
	}
	tr.observe("server.shadow_sum", sum)
}
