// Package server is the rio-serve service: a long-running multi-tenant
// HTTP front end over rio.Compile and rio.Engine. Clients POST task flows in
// the JSON graph wire format (the form rio-vet -emit json writes and
// rio-vet vets), the server preflights them through internal/analyze, compiles
// each distinct (graph, mapping) once under the submitted mapping —
// certifying the streams when Config.Verify is set — and serves repeated
// executions from the tenant's flow table, which holds the compiled
// programs. This is the paper's compile-once/replay-many design turned
// into a serving workload: graph setup is amortized across every request
// that replays it.
//
// Layering (DESIGN.md §11): api (this package's handlers) → ingest
// (internal/server/ingest, the submission path shared with the CLI
// tools) → flow table (one per tenant: content hash → compiled program)
// → engine (one rio.Engine per tenant, which only runs programs; its wait
// hooks time the blocking waits /v1/progress and /metrics report).
//
// Admission control: each tenant owns a bounded worker pool (its
// engine's Config.Workers threads) and one turn that serializes runs on the
// engine (one flow at a time): a request runs on its own handler goroutine
// while it holds the turn, and one admitted while another runs waits in a
// FIFO list bounded by Config.QueueDepth until the finishing run hands it
// the turn; no tenant has a goroutine of its own. A full list answers
// 429 with a Retry-After hint instead of queueing unboundedly; each
// execution is bounded by Config.Timeout (rio.Options.Timeout on the
// tenant engine); Drain stops admission with 503 and lets in-flight and
// queued work finish.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"time"
	"unsafe"

	"rio"
	"rio/internal/analyze"
	"rio/internal/server/ingest"
	"rio/internal/stf"
)

// Config parameterizes a Server. The zero value serves with the
// defaults noted on each field.
type Config struct {
	// Workers is each tenant engine's worker-pool size (default 4).
	Workers int
	// QueueDepth bounds each tenant's submission queue: the execution
	// requests waiting while another runs. One arriving at a full queue is
	// rejected with 429 and a Retry-After hint rather than admitted
	// (default 64).
	QueueDepth int
	// MaxTenants bounds the number of distinct tenants the server will
	// lazily create engines for; beyond it, requests naming a new tenant
	// get 503 (default 16).
	MaxTenants int
	// MaxFlows bounds the flows a tenant may keep registered; beyond it,
	// new submissions get 507. Nothing deletes or evicts a flow, so a
	// tenant at the bound stays there until the server restarts
	// (resubmitting a registered flow still answers 200; default 128).
	MaxFlows int
	// Timeout bounds each execution (rio.Options.Timeout on the tenant
	// engine): a run exceeding it is canceled and the request answers
	// 504 (default 30s; negative disables).
	Timeout time.Duration
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// Preflight selects the static-analysis passes run over every new
	// flow at submission; findings of Warning or worse reject it with
	// 422 and the analysis report as the body (default
	// access+mapping — the deterministic, cheap passes).
	Preflight analyze.Passes
	// Verify certifies compiled streams against their graph and mapping
	// on every compile (translation validation, rio.Verify); a rejected
	// certificate answers 422 with the report, like a preflight finding.
	Verify bool
	// Prune applies §3.5 task pruning when compiling (rio.Compile's prune).
	Prune bool
	// Kernels adds named kernels to (or overrides) the built-in registry
	// (noop, spin, sleep) that run requests select from.
	Kernels map[string]rio.Kernel
	// PublishExpvar publishes each tenant's run counters under the expvar
	// name "rio.<tenant>" (/debug/vars). Off by default: expvar names are
	// process-global and publishing twice panics, so only one Server per
	// process may enable it.
	PublishExpvar bool
	// Logf receives the server's log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 16
	}
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = 128
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Timeout < 0 {
		cfg.Timeout = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Preflight == 0 {
		cfg.Preflight = analyze.PassAccess | analyze.PassMapping
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return cfg
}

// TenantHeader names the tenant a request acts for; absent means
// "default". Tenant names are lowercase [a-z0-9_-], at most 64 bytes.
const TenantHeader = "X-Rio-Tenant"

// DefaultTenant is the tenant of requests that send no TenantHeader.
const DefaultTenant = "default"

var tenantNameRE = regexp.MustCompile(`^[a-z0-9_-]{1,64}$`)

// Server is the rio-serve HTTP service. Create one with New, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	kernels map[string]rio.Kernel
	mux     *http.ServeMux

	reg *registry // tenant table + draining state + drain bookkeeping
}

// New builds a Server from cfg (zero fields take the documented
// defaults).
func New(cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		cfg:     c,
		kernels: builtinKernels(),
		mux:     http.NewServeMux(),
		reg:     newRegistry(c),
	}
	for name, k := range c.Kernels {
		s.kernels[name] = k
	}
	s.mux.HandleFunc("POST /v1/flows", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/flows", s.handleListFlows)
	s.mux.HandleFunc("GET /v1/flows/{id}", s.handleFlowInfo)
	s.mux.HandleFunc("POST /v1/flows/{id}/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/run", s.handleSubmitRun)
	s.mux.HandleFunc("GET /v1/progress", s.handleProgress)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler returns the service's HTTP handler (the /v1 API plus /metrics
// and /healthz). Debug surfaces — pprof, expvar — are deliberately not
// on it; cmd/rio-serve mounts them on a separate mux so deployments can
// keep them off the client-facing listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the service down: new submissions and
// executions are rejected with 503 from the moment it is called, queued
// and in-flight executions run to completion, and Drain returns when the
// last one finished. If ctx expires first, the remaining executions are
// canceled (they unwind through the engines' cooperative cancellation)
// and Drain returns ctx's error after they do.
func (s *Server) Drain(ctx context.Context) error {
	return s.reg.drain(ctx)
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.reg.draining.Load() }

// tenantFor resolves the request's tenant, lazily creating its engine.
// It writes the error response itself when it returns nil.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) *tenant {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		name = DefaultTenant
	}
	if !tenantNameRE.MatchString(name) {
		writeErr(w, http.StatusBadRequest, "bad tenant name %q (want lowercase [a-z0-9_-], at most 64 bytes)", name)
		return nil
	}
	t, err := s.reg.tenant(name, s.cfg)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	}
	return t
}

// lookupTenant resolves the request's tenant without creating it (for
// read-only surfaces like /metrics).
func (s *Server) lookupTenant(w http.ResponseWriter, r *http.Request) *tenant {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		name = DefaultTenant
	}
	t := s.reg.lookup(name)
	if t == nil {
		writeErr(w, http.StatusNotFound, "unknown tenant %q (tenants exist once they submit a flow)", name)
	}
	return t
}

// flowInfo is the JSON description of a registered flow.
type flowInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Tasks   int    `json:"tasks"`
	Data    int    `json:"data"`
	Mapping string `json:"mapping"`
	// Cached reports that the flow was already registered (the compiled
	// program was reused, not rebuilt).
	Cached bool `json:"cached"`
	// Verified reports that the compiled streams carry a translation-
	// validation certificate (Config.Verify).
	Verified bool `json:"verified"`
	// Runs counts completed executions of the flow.
	Runs int64 `json:"runs"`
	// ProgramBytes is what the flow holds for its programs (programBytes):
	// the task table once, and the streams of every program it holds.
	ProgramBytes int64 `json:"program_bytes"`
	// ProgramWidths lists the widths whose programs the flow holds: the one
	// compiled at submit, and the other once a run's compile published it.
	ProgramWidths []int `json:"program_widths"`
	// Widths reports, for each kernel the flow has run with since it holds
	// programs of both widths, the run width it has settled on and the
	// recent walls it chose by (tenant.program); absent while the flow
	// runs at one width only.
	Widths map[string]widthInfo `json:"widths,omitempty"`
	// Findings tallies the preflight report (informational findings do
	// not reject).
	Findings struct {
		Errors   int `json:"errors"`
		Warnings int `json:"warnings"`
		Infos    int `json:"infos"`
	} `json:"findings"`
}

// widthInfo is one kernel's entry of flowInfo.Widths: the width the flow
// runs at with it between probes, and the recent wall time of a run at
// width 1 and at Config.Workers (0 until measured).
type widthInfo struct {
	Workers      int64 `json:"workers"`
	NarrowWallNS int64 `json:"narrow_wall_ns"`
	WideWallNS   int64 `json:"wide_wall_ns"`
}

func (s *Server) flowInfo(f *flow, cached bool) flowInfo {
	info := flowInfo{
		ID:            f.id,
		Name:          f.sub.Graph.Name,
		Tasks:         len(f.sub.Graph.Tasks),
		Data:          f.sub.Graph.NumData,
		Mapping:       f.sub.MappingSpec.Canonical(),
		Cached:        cached,
		Verified:      s.cfg.Verify,
		Runs:          f.runs.Load(),
		ProgramBytes:  f.bytes.Load(),
		ProgramWidths: f.widthsHeld(),
	}
	if widths := f.widths.Load(); widths != nil {
		info.Widths = make(map[string]widthInfo, len(*widths))
		for k, c := range *widths {
			info.Widths[k] = widthInfo{Workers: c.workers.Load(), NarrowWallNS: c.wall[0].Load(), WideWallNS: c.wall[1].Load()}
		}
	}
	if f.report != nil {
		info.Findings.Errors = f.report.Errors
		info.Findings.Warnings = f.report.Warnings
		info.Findings.Infos = f.report.Infos
	}
	return info
}

// handleSubmit is POST /v1/flows: parse, validate, preflight and compile
// one flow, registering it under its content hash.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	f, sub, err := s.submit(w, r, t, false)
	if err != nil {
		writeSubmitErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.flowInfo(f, f.sub != sub))
}

// submit runs the shared submission path on the request body: one
// ingest.Parse, for a run (POST /v1/run) the kernel check, flow-level
// deduplication by content hash, and — for the first submitter of a new
// hash — preflight and one compile (prepare). A flow registered to be run
// with a kernel under the default mapping compiles at the width the
// tenant's choice for that kernel names (kernelWidths.next), every other
// at Config.Workers. The flow's ready gate is the singleflight: concurrent
// submitters of the same flow wait for the winner's program instead of
// compiling their own. It returns the flow and this request's own
// submission, which is the flow's (f.sub == sub) exactly when this request
// registered it.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, t *tenant, run bool) (*flow, *ingest.Submission, error) {
	var body io.Reader = http.MaxBytesReader(w, r.Body, ingest.MaxBodyBytes)
	if r.ContentLength > 0 { // declared, not chunked: Parse sizes its buffer by it, up to what it pools
		body = sizedBody{body, int(min(r.ContentLength, ingest.MaxBodyBytes))}
	}
	sub, err := ingest.Parse(body, s.cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	var kernel string
	if run {
		if kernel, _, err = s.kernel(sub.Kernel); err != nil {
			return nil, nil, err
		}
	}
	f, err := t.register(sub)
	if err != nil {
		return nil, nil, err
	}
	if f.sub == sub {
		width := s.cfg.Workers
		if run && sub.MappingSpec.IsDefault() {
			width = t.kernels.next(kernel, s.cfg.Workers)
		}
		s.prepare(f, width)
		if f.err != nil {
			t.unregister(f)
		} else {
			t.misses.Add(1)
		}
		close(f.ready)
	}
	select {
	case <-f.ready:
	case <-r.Context().Done():
		return nil, nil, r.Context().Err()
	}
	if f.err != nil {
		return nil, nil, f.err
	}
	return f, sub, nil
}

// prepare preflights f's submission and compiles its program of width
// workers: a lowering at more than one worker runs on a goroutine beside
// the preflight and is joined before prepare returns (the one-worker
// lowering, a few microseconds, costs less than waking a goroutine, and
// runs first), and certification (Config.Verify) starts only once
// preflight has accepted, so a rejected flow costs at most the one
// lowering. It sets f's report and err, and on success its program, bytes
// and compileWall.
func (s *Server) prepare(f *flow, workers int) {
	type lowered struct {
		cp   *rio.CompiledProgram
		err  error
		wall time.Duration
	}
	g, m := f.sub.Graph, f.mapping(workers, s.cfg.Workers)
	done := make(chan lowered, 1)
	lower := func() {
		start := time.Now()
		cp, err := f.sub.Compile(workers, s.cfg.Prune)
		done <- lowered{cp, err, time.Since(start)}
	}
	if workers == 1 {
		lower()
	} else {
		go lower()
	}
	f.report, f.err = ingest.Preflight(f.sub, s.cfg.Preflight)
	low := <-done
	if f.err == nil {
		f.err = low.err
	}
	if f.err == nil {
		start := time.Now()
		f.err = s.cfg.certified(g, low.cp, m)
		low.wall += time.Since(start)
	}
	if f.err != nil {
		return
	}
	f.compileWall = low.wall
	f.progs[slot(workers)].Store(low.cp)
	f.bytes.Store(programBytes(low.cp))
	// The owner table has served the checks and this lowering; the flow
	// table does not keep it (a later compile at Workers resolves the
	// mapping again).
	f.sub.Owners = nil
}

// sizedBody is a request body that reports its declared Content-Length
// the way in-memory readers report what they hold. It is a capacity hint
// and nothing else: what limits the body is the MaxBytesReader inside,
// and a client may declare what it never sends, so ingest.Parse takes the
// hint for no more than stf.MaxPooledBytes up front.
type sizedBody struct {
	io.Reader
	n int
}

func (b sizedBody) Len() int { return b.n }

// compile lowers sub's program of width workers (ingest.Submission.Compile),
// pruned as Config.Prune says, and certifies the result when Config.Verify
// is set. A run starts the compile of a flow's second program with it
// (tenant.compileOther); a submission's first is lowered and certified in
// two steps (Server.prepare).
func (c *Config) compile(sub *ingest.Submission, workers int, m rio.Mapping) (*rio.CompiledProgram, error) {
	cp, err := sub.Compile(workers, c.Prune)
	if err == nil {
		err = c.certified(sub.Graph, cp, m)
	}
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// certified certifies cp against g and m when Config.Verify is set: a
// rejected certificate is a PreflightError carrying the report.
func (c *Config) certified(g *stf.Graph, cp *rio.CompiledProgram, m rio.Mapping) error {
	if !c.Verify {
		return nil
	}
	if report := certify(g, cp, m, nil); report.Reject() {
		return &analyze.PreflightError{Report: report}
	}
	return nil
}

// certify is the translation validator compile runs under Config.Verify.
var certify = rio.Verify

// programBytes is what a registered flow holds for as long as it is
// registered: the task table and its accesses, which kernels receive, and
// the compiled streams.
func programBytes(cp *rio.CompiledProgram) int64 {
	n := len(cp.Tasks) * int(unsafe.Sizeof(stf.Task{}))
	for i := range cp.Tasks {
		n += len(cp.Tasks[i].Accesses) * int(unsafe.Sizeof(stf.Access{}))
	}
	return int64(n) + streamBytes(cp)
}

// streamBytes is what cp's compiled streams hold: all a flow's second
// program adds to its bytes, since every program of a graph shares the
// graph's task table.
func streamBytes(cp *rio.CompiledProgram) int64 {
	n := 0
	for _, st := range cp.Streams {
		n += stf.StreamBytes(st)
	}
	return int64(n)
}

// handleListFlows is GET /v1/flows.
func (s *Server) handleListFlows(w http.ResponseWriter, r *http.Request) {
	t := s.lookupTenant(w, r)
	if t == nil {
		return
	}
	flows := t.snapshot()
	infos := make([]flowInfo, 0, len(flows))
	for _, f := range flows {
		infos = append(infos, s.flowInfo(f, true))
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": t.name, "flows": infos})
}

// handleFlowInfo is GET /v1/flows/{id}.
func (s *Server) handleFlowInfo(w http.ResponseWriter, r *http.Request) {
	t := s.lookupTenant(w, r)
	if t == nil {
		return
	}
	f := t.lookup(r.PathValue("id"))
	if f == nil {
		writeErr(w, http.StatusNotFound, "unknown flow %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.flowInfo(f, true))
}

// runResult is the JSON response of an execution.
type runResult struct {
	Flow   string `json:"flow"`
	Kernel string `json:"kernel"`
	// Executed is the number of tasks the run executed.
	Executed int64 `json:"executed"`
	// Workers is the run's width: Config.Workers, or 1 when the program
	// it ran is the flow's 1-worker one (tenant.program).
	Workers int `json:"workers"`
	// WallNS is the execution's wall time; QueueNS the time the request
	// spent queued behind other executions.
	WallNS  int64 `json:"wall_ns"`
	QueueNS int64 `json:"queue_ns"`
}

// handleRun is POST /v1/flows/{id}/run: admission-controlled execution
// of a registered flow.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	f := t.lookup(r.PathValue("id"))
	if f == nil {
		writeErr(w, http.StatusNotFound, "unknown flow %q", r.PathValue("id"))
		return
	}
	// The body is {"kernel": name}, optional: the task body to replay the
	// flow with, one of the built-in kernels (noop, spin, sleep) or a
	// Config.Kernels entry; none means noop, the synchronization skeleton
	// (Server.kernel).
	kernel, err := ingest.ParseRun(http.MaxBytesReader(w, r.Body, maxRunRequestBytes))
	if err != nil {
		writeSubmitErr(w, err) // 413 when oversized, else 400
		return
	}
	s.execute(w, r, t, f, kernel)
}

// handleSubmitRun is POST /v1/run: submit and execute in one request
// (the body is the submit envelope, optionally carrying a kernel field).
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	f, sub, err := s.submit(w, r, t, true)
	if err != nil {
		writeSubmitErr(w, err)
		return
	}
	s.execute(w, r, t, f, sub.Kernel)
}

// kernel resolves a run's kernel name against the registry: none means
// noop. The error is a 400's text.
func (s *Server) kernel(name string) (string, rio.Kernel, error) {
	name = cmp.Or(name, "noop")
	k, ok := s.kernels[name]
	if !ok {
		return name, nil, fmt.Errorf("unknown kernel %q", name)
	}
	return name, k, nil
}

// execute resolves the kernel, admits the request into the tenant's
// bounded queue (or answers 429), runs it on this goroutine once it holds
// the tenant's turn and writes the result.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, t *tenant, f *flow, kernel string) {
	kernel, k, err := s.kernel(kernel)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	req := &execReq{
		flow:   f,
		kernel: k,
		name:   kernel,
		ctx:    r.Context(),
		queued: time.Now(),
	}
	if !t.admit(req) {
		// admit refuses for two reasons: a drain raced past the
		// handler-entry check (503, like every other draining reject)
		// or the queue is full (the 429 backpressure path).
		if s.rejectDraining(w) {
			return
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.RetryAfter)))
		writeErr(w, http.StatusTooManyRequests,
			"tenant %q submission queue is full (%d pending); retry later", t.name, s.cfg.QueueDepth)
		return
	}
	res, ok := t.run(req)
	if !ok || r.Context().Err() != nil {
		return // client gone: nothing useful can be written
	}
	if res.err != nil {
		switch {
		case errors.Is(res.err, context.DeadlineExceeded):
			writeErr(w, http.StatusGatewayTimeout, "execution exceeded the %v request timeout: %v", s.cfg.Timeout, res.err)
		case errors.Is(res.err, context.Canceled):
			writeErr(w, http.StatusServiceUnavailable, "execution canceled: %v", res.err)
		default:
			writeErr(w, http.StatusInternalServerError, "execution failed: %v", res.err)
		}
		return
	}
	writeJSON(w, http.StatusOK, runResult{
		Flow:     f.id,
		Kernel:   kernel,
		Executed: res.executed,
		Workers:  res.workers,
		WallNS:   int64(res.wall),
		QueueNS:  int64(res.queueWait),
	})
}

// progressInfo is the JSON response of GET /v1/progress: the tenant's run
// counters (tenant.Progress) plus the admission and flow-table state that
// frames them. Cache is the flow table as a program cache: one miss per
// registered flow (a flow's second compile is not a miss), one hit per
// execution started, one entry per registered flow, and the entries'
// program bytes. Runs says how many executions started; Kernels is each
// kernel's width choice (kernelWidths), which names the width a never-seen
// flow run with it compiles at; Progress is the current or last run, its
// wait histogram included.
type progressInfo struct {
	Tenant   string `json:"tenant"`
	Draining bool   `json:"draining"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	Flows    int    `json:"flows"`
	Cache    struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	} `json:"cache"`
	Runs struct {
		Total int64 `json:"total"`
	} `json:"runs"`
	Kernels  map[string]kernelWidthInfo `json:"kernels,omitempty"`
	Progress rio.Progress               `json:"progress"`
}

// handleProgress is GET /v1/progress.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	t := s.lookupTenant(w, r)
	if t == nil {
		return
	}
	flows := t.snapshot()
	info := progressInfo{
		Tenant:   t.name,
		Draining: s.Draining(),
		QueueLen: t.queueLen(),
		QueueCap: s.cfg.QueueDepth,
		Flows:    len(flows),
		Kernels:  t.kernels.info(),
		Progress: t.Progress(),
	}
	for _, f := range flows {
		info.Cache.Bytes += f.bytes.Load()
	}
	info.Cache.Hits, info.Cache.Misses, info.Cache.Entries = t.hits.Load(), t.misses.Load(), info.Flows
	info.Runs.Total = info.Cache.Hits
	writeJSON(w, http.StatusOK, info)
}

// handleMetrics is GET /metrics: the Prometheus text exposition of the
// tenant's run counters (rio.MetricsHandler's format and error contract).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	t := s.lookupTenant(w, r)
	if t == nil {
		return
	}
	rio.MetricsHandler(t).ServeHTTP(w, r)
}

// handleHealth is GET /healthz: 200 while serving, 503 once draining
// (load balancers stop routing to a draining instance).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining; no new work admitted")
		return true
	}
	return false
}

// writeSubmitErr maps submission-path errors to statuses: a preflight
// rejection is 422 with the full analysis report as the body (the same
// JSON rio-vet -json emits, so the rejection reproduces locally); any
// other parse/validation error is 400.
func writeSubmitErr(w http.ResponseWriter, err error) {
	var pf *analyze.PreflightError
	if errors.As(err, &pf) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		pf.Report.WriteJSON(w)
		return
	}
	var full *flowTableFullError
	if errors.As(err, &full) {
		writeErr(w, http.StatusInsufficientStorage, "%v", err)
		return
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	writeErr(w, http.StatusBadRequest, "%v", err)
}

// retryAfterSeconds rounds d up to whole seconds (Retry-After's unit),
// minimum 1.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// maxRunRequestBytes bounds the body of POST /v1/flows/{id}/run, which is
// at most {"kernel": "<name>"}.
const maxRunRequestBytes = 4 << 10

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
