package server

// The tenant layer: one flow table (content hash → compiled program), one
// rio.Engine and one turn per tenant. Submitters compile into the flow
// table concurrently and never touch the engine; a run request runs its
// program on its own handler goroutine, but only while it holds the
// tenant's turn, which one request holds at a time, so the turn is what
// makes the whole service safe. A request admitted while another runs waits
// in the tenant's bounded FIFO list, and the run that finishes hands the
// turn to the list's head: no goroutine of the tenant's own exists. The
// engine keeps no stopwatch (NoAccounting): its wait hooks time the
// blocking waits and nothing else (waitSlot), and every reader of a
// tenant's counters goes through tenant.Progress.
// Admission takes the turn or a place in the list: a full list rejects
// instead of blocking, which is the 429 backpressure path.

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rio"
	"rio/internal/analyze"
	"rio/internal/server/ingest"
	"rio/internal/trace"
)

// flow is one registered (graph, mapping) pair: the parsed submission,
// its preflight report, its programs by width, and the singleflight gate
// the first submitter closes once preflight + compile finished.
type flow struct {
	id  string // ingest content hash
	sub *ingest.Submission

	// ready is closed by the registering submitter once report, err and
	// the submit program are set; concurrent submitters of the same hash
	// wait on it.
	ready  chan struct{}
	report *analyze.Report
	err    error
	bytes  atomic.Int64 // programBytes of the programs in progs
	// compileWall is how long compiling (and certifying) the submit
	// program took.
	compileWall time.Duration

	runs atomic.Int64

	// progs holds the flow's programs by width (slot): the one compiled at
	// submit (Server.prepare), at Config.Workers or at the width its
	// kernel's choice named, and the other width's once a run has started
	// its compile (tenant.program; tenant.compileOther; otherTried) — nil
	// until it is published, and for good when the flow is pinned at p or
	// the compile failed. widths holds one widthChoice per kernel the flow
	// has run with since it holds both, replaced whole by the run that adds
	// a kernel, for GET /v1/flows/{id} to read. runWall and otherTried
	// belong to the request holding the turn.
	progs      [2]atomic.Pointer[rio.CompiledProgram]
	runWall    time.Duration
	otherTried bool
	widths     atomic.Pointer[map[string]*widthChoice]

	// labels holds, per kernel name, the context carrying the pprof labels
	// of the flow's runs with that kernel (runLabels). The request holding
	// the turn only.
	labels map[string]context.Context
}

// runLabels returns the context whose pprof labels name a run of f with
// kernel under tenant — rio_tenant, rio_flow and rio_kernel — built by the
// first such run and kept for the others.
func (f *flow) runLabels(tenant, kernel string) context.Context {
	ctx := f.labels[kernel]
	if ctx == nil {
		if f.labels == nil {
			f.labels = make(map[string]context.Context, 1)
		}
		ctx = pprof.WithLabels(context.Background(), pprof.Labels("rio_tenant", tenant, "rio_flow", f.id, "rio_kernel", kernel))
		f.labels[kernel] = ctx
	}
	return ctx
}

// slot is the index of width w in a flow's progs and a widthChoice's
// walls: 0 for one worker, 1 for Config.Workers.
func slot(w int) int {
	if w == 1 {
		return 0
	}
	return 1
}

// mapping is what f's program of width w compiles under: the submitted
// mapping at Config.Workers (p), the cyclic default at one worker.
func (f *flow) mapping(w, p int) rio.Mapping {
	if w == p {
		return f.sub.Mapping
	}
	return nil
}

// widthsHeld lists the widths whose programs f holds, narrowest first.
func (f *flow) widthsHeld() []int {
	var ws []int
	for i := range f.progs {
		if cp := f.progs[i].Load(); cp != nil {
			ws = append(ws, cp.Workers)
		}
	}
	return ws
}

// reprobeEvery is how often a (flow, kernel) pair that has settled on one
// width runs at the other instead, so that a width that has become the
// faster one — the kernel got dearer, the machine busier — is noticed: once
// in reprobeEvery·⌈slow/fast⌉ runs, fast and slow the two widths' recent
// walls. A probe costs slow − fast over a period of runs of fast each, so
// stretching the period by the ratio keeps the probes under 1/reprobeEvery
// of the pair's time whatever p is, and a probe much slower than the
// settled run lands in the latency tail as rarely.
const reprobeEvery = 64

// recentRuns is how many of a width's latest measured runs its recent wall
// is the least of, and settleAfter how many each width needs before the
// pair settles. A run is slowed by a collection, a preemption or another
// tenant, never sped up, so the least of a few is the estimate that one
// unlucky run cannot move.
const recentRuns, settleAfter = 4, 2

// widthChoice is the run width of one (flow, kernel) pair, or of one
// kernel across a tenant's flows, chosen between the two candidates 1 and
// p by measurement. Eq. (2) prices a run at n·t_r + n·t_t/w on top of a
// fixed cost per run that grows with w (spawn, wake, join): at w = 1 the
// compiled stream is bare exec words (no get, no terminate, no wait) and
// nothing is spawned, so a flow of cheap tasks finishes sooner on one
// worker, and one of dear tasks on p. Rather than predict the crossover,
// the tenant times both widths and keeps the faster. Reporting eq. (2)'s
// prediction beside the measurement waits for a per-run task share.
type widthChoice struct {
	// workers is the width the pair has settled on (what it runs at between
	// probes); wall the recent cost of a run at width 1
	// (wall[0]) and p (wall[1]), in ns, 0 until measured: a run's wall for
	// a flow's choice, its wall per executed task for a kernel's.
	workers atomic.Int64
	wall    [2]atomic.Int64

	// Its owner's only (the request holding the turn for a flow's choice,
	// kernelWidths.mu for a kernel's): each width's latest measured walls
	// (a ring) and how many it has had, and the runs since the last probe.
	samples  [2][recentRuns]int64
	measured [2]int
	runs     int
}

func newWidthChoice(p int) *widthChoice {
	c := &widthChoice{}
	c.workers.Store(int64(p))
	return c
}

// next returns the width of the pair's next run: the less measured one
// until each has settleAfter measurements, then the one of the lower
// recent wall, and the other once a probe period (reprobeEvery) has passed.
func (c *widthChoice) next(p int) int {
	if min(c.measured[0], c.measured[1]) < settleAfter {
		if c.measured[0] <= c.measured[1] {
			return 1
		}
		return p
	}
	best, other := 1, p
	fast, slow := c.wall[0].Load(), c.wall[1].Load()
	if slow < fast {
		best, other, fast, slow = p, 1, slow, fast
	}
	c.workers.Store(int64(best))
	if c.runs++; c.runs >= reprobeEvery*int((slow+fast-1)/fast) {
		c.runs = 0
		return other
	}
	return best
}

// observe records that a run at width w took wall, and
// publishes the least of the width's recent walls.
func (c *widthChoice) observe(w int, wall time.Duration) {
	i := slot(w)
	ring := &c.samples[i]
	ring[c.measured[i]%recentRuns] = max(wall.Nanoseconds(), 1)
	c.measured[i]++
	c.wall[i].Store(slices.Min(ring[:min(c.measured[i], recentRuns)]))
}

// kernelWidths is a tenant's width choice per kernel name: fed with every
// run of a default-mapping flow (a submitted mapping says nothing of how a
// cyclic program of the kernel runs), as its wall per executed task, so
// that flows of every size add to one estimate, and read
// when a never-seen flow registered by POST /v1/run picks the width of its
// submit compile (Server.submit). The kernel is resolved first, so only
// registered names have an entry.
type kernelWidths struct {
	mu sync.Mutex
	m  map[string]*widthChoice
}

// next returns the width a never-seen flow to be run with kernel compiles
// at: p while the kernel has no measured run, then the width its choice's
// next names.
func (k *kernelWidths) next(kernel string, p int) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	c := k.m[kernel]
	if c == nil {
		return p
	}
	return c.next(p)
}

// observe records that a run of kernel at width w took perTask per
// executed task.
func (k *kernelWidths) observe(kernel string, w, p int, perTask time.Duration) {
	k.mu.Lock()
	defer k.mu.Unlock()
	c := k.m[kernel]
	if c == nil {
		if k.m == nil {
			k.m = make(map[string]*widthChoice)
		}
		c = newWidthChoice(p)
		k.m[kernel] = c
	}
	c.observe(w, perTask)
}

// kernelWidthInfo is one kernel's entry of GET /v1/progress's kernels: the
// width a never-seen flow run with it compiles at between probes, and the
// recent wall per executed task of a run at width 1 and at Config.Workers
// (0 until measured).
type kernelWidthInfo struct {
	Workers         int64 `json:"workers"`
	NarrowNSPerTask int64 `json:"narrow_ns_per_task"`
	WideNSPerTask   int64 `json:"wide_ns_per_task"`
}

// info reads every kernel's choice.
func (k *kernelWidths) info() map[string]kernelWidthInfo {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.m) == 0 {
		return nil
	}
	out := make(map[string]kernelWidthInfo, len(k.m))
	for name, c := range k.m {
		out[name] = kernelWidthInfo{Workers: c.workers.Load(), NarrowNSPerTask: c.wall[0].Load(), WideNSPerTask: c.wall[1].Load()}
	}
	return out
}

// flowTableFullError rejects a submission when the tenant's flow table
// is at Config.MaxFlows.
type flowTableFullError struct {
	tenant string
	limit  int
}

func (e *flowTableFullError) Error() string {
	return fmt.Sprintf("tenant %q flow table is full (%d flows registered)", e.tenant, e.limit)
}

// execReq is one admitted execution request. Its handler runs it once it
// holds the tenant's turn.
type execReq struct {
	flow   *flow
	kernel rio.Kernel
	name   string
	ctx    context.Context // the HTTP request's context
	queued time.Time
	// turn is closed when the turn is handed to the request, which then
	// waited in the tenant's list; nil when admission found the tenant idle.
	turn chan struct{}
}

type execResult struct {
	err       error
	executed  int64
	workers   int
	wall      time.Duration
	queueWait time.Duration
}

type tenant struct {
	name string
	// eng is the tenant's one engine: NoAccounting, with the wait hooks
	// that fill waits, one slot per worker of the widest run.
	eng   *rio.Engine
	waits []waitSlot
	reg   *registry

	mu    sync.Mutex
	flows map[string]*flow
	// hits counts executions started on a registered flow — the cache
	// block's hits and the runs block's total of GET /v1/progress —
	// misses the compiles that registered a flow.
	hits, misses atomic.Int64
	kernels      kernelWidths

	// The turn: busy while an admitted request holds it, waiting the
	// requests admitted behind it, oldest first and at most
	// Config.QueueDepth of them. turnMu guards both.
	turnMu  sync.Mutex
	busy    bool
	waiting []*execReq

	// cancelRun cancels the run of the request holding the turn, nil
	// between runs, with the cause that ends it: a drain's abort
	// (registry.abortRuns), or the run's deadline (expire). runMu guards it
	// and deadline, when the run times out.
	runMu     sync.Mutex
	cancelRun context.CancelCauseFunc
	deadline  time.Time
	// timer calls expire at the run's deadline: made by the first run under
	// a Config.Timeout and re-armed by every run after it. The request
	// holding the turn only.
	timer *time.Timer
}

// waitSlot is one worker's part of the tenant's wait hooks: the trace.Stamp
// at which its current blocking wait began, and the histogram of the waits
// it completed in the current run, cleared before the next run when the
// worker recorded one (waited). The hooks fire on the worker, so each slot
// has one writer during a run; the padding keeps the workers' slots off
// each other's cache lines.
type waitSlot struct {
	waitClock
	_ [(64 - unsafe.Sizeof(waitClock{})%64) % 64]byte // to whole 64-byte cache lines
}

// waitClock is the payload of a waitSlot.
type waitClock struct {
	since  time.Duration
	hist   [trace.NumWaitBuckets]atomic.Int64
	waited bool
}

// waitHooks are the tenant engine's hooks: they bucket every blocking
// dependency wait into the waiting worker's slot. They are the only clock
// reads of a run — two per wait that blocks, none per task.
func (t *tenant) waitHooks() *rio.Hooks {
	return &rio.Hooks{
		OnWaitStart: func(w rio.WorkerID, _ rio.TaskID, _ rio.Access) {
			t.waits[w].since = trace.Stamp()
		},
		OnWaitEnd: func(w rio.WorkerID, _ rio.TaskID, _ rio.Access) {
			s := &t.waits[w]
			s.hist[trace.WaitBucket(trace.Stamp()-s.since)].Add(1)
			s.waited = true
		},
	}
}

// Progress is the one reading of the tenant's run counters, behind
// GET /v1/progress, GET /metrics, expvar and a run response's executed
// count: the engine's live counters of the current (or, between runs, the
// last) run with that run's wait histogram laid over them. Safe from any
// goroutine, like Engine.Progress; it is what rio.MetricsHandler and
// rio.PublishExpvar read of a tenant.
func (t *tenant) Progress() rio.Progress {
	p := t.eng.Progress()
	for w := range p.Workers {
		for b := range p.Workers[w].WaitHist {
			p.Workers[w].WaitHist[b] = t.waits[w].hist[b].Load()
		}
	}
	return p
}

// register inserts sub's flow into the tenant's table, or returns the
// already-registered flow for its hash. The caller registered it — and
// therefore owns preflight + compile, and must close f.ready,
// unregistering on failure — exactly when the returned flow's sub is its
// own.
func (t *tenant) register(sub *ingest.Submission) (*flow, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.flows[sub.Hash]; ok {
		return f, nil
	}
	if len(t.flows) >= t.reg.cfg.MaxFlows {
		return nil, &flowTableFullError{tenant: t.name, limit: t.reg.cfg.MaxFlows}
	}
	f := &flow{id: sub.Hash, sub: sub, ready: make(chan struct{})}
	t.flows[sub.Hash] = f
	return f, nil
}

// unregister removes a flow whose preflight or compile failed, so a
// corrected resubmission is not shadowed by the failed attempt.
func (t *tenant) unregister(f *flow) {
	t.mu.Lock()
	if t.flows[f.id] == f {
		delete(t.flows, f.id)
	}
	t.mu.Unlock()
}

// lookup returns the ready flow registered under id, nil if absent or
// still (or terminally) unready. Waiting for readiness is the submit
// path's job; by the time a client holds an id, its flow is ready.
func (t *tenant) lookup(id string) *flow {
	t.mu.Lock()
	f := t.flows[id]
	t.mu.Unlock()
	if f == nil {
		return nil
	}
	select {
	case <-f.ready:
		if f.err != nil {
			return nil
		}
		return f
	default:
		return nil
	}
}

// snapshot returns the tenant's ready flows, ordered by id for stable
// listings.
func (t *tenant) snapshot() []*flow {
	t.mu.Lock()
	flows := make([]*flow, 0, len(t.flows))
	for _, f := range t.flows {
		select {
		case <-f.ready:
			if f.err == nil {
				flows = append(flows, f)
			}
		default:
		}
	}
	t.mu.Unlock()
	sort.Slice(flows, func(i, j int) bool { return flows[i].id < flows[j].id })
	return flows
}

// admit admits req: it takes the turn when no request holds it, else a
// place at the end of the waiting list. False means the request was not
// admitted — the list is full (429) or the registry started draining (503;
// the caller distinguishes via Draining()). An admitted request is counted
// in the registry's drain WaitGroup until tenant.run is done with it. The
// flag check and the Add share the registry lock with drain's flag flip,
// so every Add happens before the flip — and hence before drain's Wait — or
// observes the flag and rejects: no admitted request can slip past the
// drain barrier.
func (t *tenant) admit(req *execReq) bool {
	r := t.reg
	r.mu.Lock()
	if r.draining.Load() {
		r.mu.Unlock()
		return false
	}
	r.inflight.Add(1)
	r.mu.Unlock()
	t.turnMu.Lock()
	defer t.turnMu.Unlock()
	switch {
	case !t.busy:
		t.busy = true
	case len(t.waiting) < r.cfg.QueueDepth:
		req.turn = make(chan struct{})
		t.waiting = append(t.waiting, req)
	default:
		r.inflight.Done()
		return false
	}
	return true
}

// queueLen returns how many admitted requests wait for the turn.
func (t *tenant) queueLen() int {
	t.turnMu.Lock()
	defer t.turnMu.Unlock()
	return len(t.waiting)
}

// run serves an admitted request on the calling goroutine: it waits for the
// request's turn, executes it and passes the turn on. ok is false when the
// client left while the request waited: it withdrew, and nothing ran. A
// queued request is never abandoned: drain waits for run to return.
func (t *tenant) run(req *execReq) (res execResult, ok bool) {
	defer t.reg.inflight.Done()
	if !t.await(req) {
		return execResult{}, false
	}
	defer t.pass()
	return t.execute(req), true
}

// await blocks until req holds the turn, or its client leaves first: then
// it withdraws from the waiting list and reports false. If the turn reached
// it at that moment, it holds the turn anyway and reports true; execute
// finds its context done, and run passes the turn on.
func (t *tenant) await(req *execReq) bool {
	if req.turn == nil {
		return true
	}
	select {
	case <-req.turn:
		return true
	case <-req.ctx.Done():
	}
	t.turnMu.Lock()
	defer t.turnMu.Unlock()
	i := slices.Index(t.waiting, req)
	if i < 0 {
		return true // pass removed it: the turn is its
	}
	t.waiting = slices.Delete(t.waiting, i, i+1)
	return false
}

// pass hands the turn from the request that ran to the head of the waiting
// list, or leaves the tenant idle when nobody waits.
func (t *tenant) pass() {
	t.turnMu.Lock()
	defer t.turnMu.Unlock()
	if len(t.waiting) == 0 {
		t.busy = false
		return
	}
	next := t.waiting[0]
	t.waiting = slices.Delete(t.waiting, 0, 1)
	close(next.turn)
}

// execute runs one request holding the turn on the tenant's engine, its
// wait histogram cleared first so that Progress shows this run's. The run
// has one context of its own (runContext): the client's request context
// bounded by Config.Timeout, which a drain's abort cancels too.
// Execution runs under pprof labels naming the tenant, flow and kernel
// (flow.runLabels), so CPU profiles of the serving process split by tenant;
// the workers a wide run spawns inherit them, and the handler goroutine's
// own labels, those of its request context, are restored afterwards.
func (t *tenant) execute(req *execReq) execResult {
	queueWait := time.Since(req.queued)
	if req.ctx.Err() != nil {
		return execResult{err: req.ctx.Err(), queueWait: queueWait}
	}
	ctx := t.runContext(req.ctx)
	defer t.endRun()

	t.hits.Add(1)
	cp, choice := t.program(req.flow, req.name)
	for w := range t.waits {
		if s := &t.waits[w]; s.waited {
			for b := range s.hist {
				s.hist[b].Store(0)
			}
			s.waited = false
		}
	}
	pprof.SetGoroutineLabels(req.flow.runLabels(t.name, req.name))
	start := time.Now()
	err := t.eng.RunCompiledContext(ctx, cp, req.kernel)
	wall := time.Since(start)
	pprof.SetGoroutineLabels(req.ctx)
	res := execResult{err: err, workers: cp.Workers, wall: wall, queueWait: queueWait}
	if err == nil {
		req.flow.runs.Add(1)
		req.flow.runWall += wall
		// A run that returns nil executed every task of its program once:
		// the count needs no Progress snapshot.
		res.executed = int64(len(cp.Tasks))
		if choice != nil {
			choice.observe(cp.Workers, wall)
		}
		if res.executed > 0 && req.flow.sub.MappingSpec.IsDefault() {
			t.kernels.observe(req.name, cp.Workers, t.reg.cfg.Workers, wall/time.Duration(res.executed))
		}
	}
	return res
}

// runContext derives the one context of the run about to start from the
// request's. Config.Timeout bounds it: the tenant's timer cancels it with
// context.DeadlineExceeded as its cause, as a context.WithTimeout would,
// without a timer of its own per run. A drain's abort cancels it too — at
// once when the abort has fired already. endRun cancels it.
func (t *tenant) runContext(parent context.Context) context.Context {
	ctx, cancel := context.WithCancelCause(parent)
	d := t.reg.cfg.Timeout
	t.runMu.Lock()
	t.cancelRun, t.deadline = cancel, time.Now().Add(d)
	t.runMu.Unlock()
	if d > 0 {
		if t.timer == nil {
			t.timer = time.AfterFunc(d, t.expire)
		} else {
			t.timer.Reset(d)
		}
	}
	// After the store: an abort that this load misses stores its flag after
	// it, and then finds cancel when it walks the tenants (abortRuns).
	if t.reg.aborted.Load() {
		cancel(nil)
	}
	return ctx
}

// expire is the tenant timer's callback: it cancels the run in flight once
// its deadline has passed. A timer armed for an earlier run can fire late,
// into a later run, whose deadline then lies ahead.
func (t *tenant) expire() {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	if t.cancelRun != nil && !time.Now().Before(t.deadline) {
		t.cancelRun(context.DeadlineExceeded)
	}
}

// endRun disarms the tenant's timer and cancels the run context
// runContext made.
func (t *tenant) endRun() {
	if t.timer != nil {
		t.timer.Stop()
	}
	t.runMu.Lock()
	cancel := t.cancelRun
	t.cancelRun = nil
	t.runMu.Unlock()
	cancel(nil)
}

// program picks the program a run of f with the named kernel takes, and
// the width choice its wall time feeds (nil when the run does not feed
// one). A flow runs on the program compiled at submit: on its first run,
// for good when it was submitted with a mapping (that mapping is the one
// run: it pins w = p) or p is 1, and otherwise until its other width's
// program is published; from then on each (flow, kernel) pair runs at the
// width its widthChoice picks. The first run whose flow's earlier runs took
// as long in all as its submit compile did starts that compile
// (compileOther). That is the rent-or-buy rule: a flow run only a few
// times, whose runs cost less than a compile, never pays for a second one,
// and a flow that keeps running buys the compile once it has spent as much
// on runs at the width it holds.
// The request holding the turn only.
func (t *tenant) program(f *flow, kernel string) (*rio.CompiledProgram, *widthChoice) {
	p := t.reg.cfg.Workers
	narrow, wide := f.progs[0].Load(), f.progs[1].Load()
	if narrow == nil || wide == nil {
		held := cmp.Or(narrow, wide)
		if !f.otherTried && f.runs.Load() > 0 && f.runWall >= f.compileWall && p > 1 && f.sub.MappingSpec.IsDefault() {
			f.otherTried = true
			other := 1
			if held.Workers == 1 {
				other = p
			}
			// Counted while this request still is, so drain waits for it.
			t.reg.inflight.Add(1)
			go t.compileOther(f, other)
		}
		return held, nil
	}
	var widths map[string]*widthChoice
	if m := f.widths.Load(); m != nil {
		widths = *m
	}
	c := widths[kernel]
	if c == nil {
		c = newWidthChoice(p)
		grown := make(map[string]*widthChoice, len(widths)+1)
		maps.Copy(grown, widths)
		grown[kernel] = c
		f.widths.Store(&grown)
	}
	if c.next(p) == 1 {
		return narrow, c
	}
	return wide, c
}

// compileOther compiles f's program of width w — pruned as Config.Prune
// says, certified first under Config.Verify — and publishes it for
// tenant.program, its streams added to the flow's bytes first. It runs on
// its own goroutine, counted with the admitted requests, so that no
// request queued behind the flow's run waits for the compile. A program that fails to
// compile or certify is logged, and the flow stays at the width it holds.
func (t *tenant) compileOther(f *flow, w int) {
	defer t.reg.inflight.Done()
	cfg := &t.reg.cfg
	cp, err := cfg.compile(f.sub, w, f.mapping(w, cfg.Workers))
	if err != nil {
		cfg.Logf("rio-serve: flow %s stays at %d workers: its %d-worker program: %v", f.id, cfg.Workers+1-w, w, err)
		return
	}
	f.bytes.Add(streamBytes(cp))
	f.progs[slot(w)].Store(cp)
}

// registry owns the tenant table and the drain protocol.
type registry struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant

	draining atomic.Bool
	// inflight counts admitted execution requests and the compiles their
	// runs start (tenant.compileOther); drain waits on it.
	inflight sync.WaitGroup
	// aborted is set when a Drain deadline expires (abortRuns): every run
	// then in flight is canceled, and so is every run that starts after.
	aborted atomic.Bool

	drainOnce sync.Once
	drainErr  error
}

func newRegistry(cfg Config) *registry {
	return &registry{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
	}
}

// tenant returns the named tenant, lazily creating it and its engine,
// bounded by Config.MaxTenants. It starts no goroutine.
func (r *registry) tenant(name string, cfg Config) (*tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok {
		return t, nil
	}
	if len(r.tenants) >= cfg.MaxTenants {
		return nil, fmt.Errorf("tenant table is full (%d tenants); tenant %q not admitted", cfg.MaxTenants, name)
	}
	t := &tenant{
		name:  name,
		waits: make([]waitSlot, cfg.Workers),
		reg:   r,
		flows: make(map[string]*flow),
	}
	// Config.Timeout bounds a run through its context (tenant.runContext),
	// not through the engine's Options.Timeout.
	eng, err := rio.NewEngine(rio.Options{Workers: cfg.Workers, NoAccounting: true, Hooks: t.waitHooks()})
	if err != nil {
		return nil, fmt.Errorf("creating engine for tenant %q: %w", name, err)
	}
	t.eng = eng
	if cfg.PublishExpvar {
		rio.PublishExpvar("rio."+name, t)
	}
	r.tenants[name] = t
	cfg.Logf("rio-serve: tenant %q admitted (%d workers, queue %d)", name, cfg.Workers, cfg.QueueDepth)
	return t, nil
}

func (r *registry) lookup(name string) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[name]
}

// abortRuns cancels the run holding each tenant's turn and, through the
// flag, every run that takes a turn after it (tenant.runContext).
func (r *registry) abortRuns() {
	r.aborted.Store(true)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		t.runMu.Lock()
		if t.cancelRun != nil {
			t.cancelRun(nil)
		}
		t.runMu.Unlock()
	}
}

// drain implements Server.Drain: flip the draining flag (handlers
// reject new work), then wait for admitted requests, the waiting ones run
// in turn, canceling them if ctx expires first.
func (r *registry) drain(ctx context.Context) error {
	r.drainOnce.Do(func() {
		// The flag flips under the registry lock (see admit): once the
		// store is visible, no admission can add to inflight, so the
		// Wait below covers every request the tenants will ever admit.
		r.mu.Lock()
		r.draining.Store(true)
		r.mu.Unlock()
		done := make(chan struct{})
		go func() {
			r.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			r.abortRuns() // cancel running executions; they unwind cooperatively
			<-done
			r.drainErr = ctx.Err()
		}
		r.cfg.Logf("rio-serve: drained")
	})
	return r.drainErr
}
