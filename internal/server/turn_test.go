package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"rio"
	"rio/internal/graphs"
)

// turnFixture is a tenant with one registered flow, driven below the HTTP
// layer: requests are admitted and run the way Server.execute does, with
// kernels the test controls.
type turnFixture struct {
	tn *tenant
	f  *flow
}

func newTurnFixture(t *testing.T, queueDepth int) *turnFixture {
	t.Helper()
	s, hs := newTestServer(t, Config{Workers: 2, QueueDepth: queueDepth})
	info := submitFlow(t, hs.URL, "", graphs.Chain(4))
	tn := s.reg.lookup(DefaultTenant)
	return &turnFixture{tn: tn, f: tn.lookup(info.ID)}
}

// request builds a request whose kernel calls first before its first task.
func (fx *turnFixture) request(ctx context.Context, first func()) *execReq {
	var once sync.Once
	return &execReq{
		flow:   fx.f,
		name:   "test",
		ctx:    ctx,
		queued: time.Now(),
		kernel: func(*rio.Task, rio.WorkerID) { once.Do(first) },
	}
}

func (fx *turnFixture) admit(t *testing.T, req *execReq) {
	t.Helper()
	if !fx.tn.admit(req) {
		t.Fatal("request not admitted")
	}
}

// Requests admitted while another runs take the turn in the order they
// were admitted, each from the run before it.
func TestTurnFIFO(t *testing.T) {
	const waiting = 4
	fx := newTurnFixture(t, waiting)
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []int
	ran := func(i int) func() {
		return func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	serve := func(req *execReq) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, ok := fx.tn.run(req); !ok || res.err != nil {
				t.Errorf("run: ok %v, err %v", ok, res.err)
			}
		}()
	}
	first := fx.request(context.Background(), func() { <-gate })
	fx.admit(t, first)
	if first.turn != nil {
		t.Fatal("the first request waits on an idle tenant")
	}
	serve(first)
	for i := 1; i <= waiting; i++ {
		req := fx.request(context.Background(), ran(i))
		fx.admit(t, req)
		serve(req)
	}
	if fx.tn.admit(fx.request(context.Background(), func() {})) {
		t.Error("admitted past the queue depth")
	}
	if n := fx.tn.queueLen(); n != waiting {
		t.Errorf("queue length %d, want %d", n, waiting)
	}
	close(gate)
	wg.Wait()
	if len(order) != waiting {
		t.Fatalf("%d waiting requests ran, want %d", len(order), waiting)
	}
	for i, got := range order {
		if got != i+1 {
			t.Fatalf("waiting requests ran in order %v, want admission order", order)
		}
	}
	if fx.tn.busy || fx.tn.queueLen() != 0 {
		t.Errorf("tenant busy %v with %d waiting after every run", fx.tn.busy, fx.tn.queueLen())
	}
}

// A waiting request whose client leaves withdraws: nothing runs for it, and
// the turn skips it.
func TestTurnClientLeavesWhileWaiting(t *testing.T) {
	fx := newTurnFixture(t, 4)
	holder := fx.request(context.Background(), func() {})
	fx.admit(t, holder)
	ctx, cancel := context.WithCancel(context.Background())
	left := fx.request(ctx, func() { t.Error("a withdrawn request ran") })
	fx.admit(t, left)
	done := make(chan bool, 1)
	go func() {
		_, ok := fx.tn.run(left)
		done <- ok
	}()
	cancel()
	if ok := <-done; ok {
		t.Error("a request whose client left while waiting reports a run")
	}
	if n := fx.tn.queueLen(); n != 0 {
		t.Errorf("queue length %d after the client left, want 0", n)
	}
	if res, ok := fx.tn.run(holder); !ok || res.err != nil {
		t.Fatalf("holder: ok %v, err %v", ok, res.err)
	}
	if fx.tn.busy {
		t.Error("the turn went to the withdrawn request")
	}
}

// A client that leaves just as the turn reaches its request takes the turn
// anyway, runs nothing and passes it on.
func TestTurnClientLeavesAsHanded(t *testing.T) {
	fx := newTurnFixture(t, 4)
	holder := fx.request(context.Background(), func() {})
	fx.admit(t, holder)
	ctx, cancel := context.WithCancel(context.Background())
	left := fx.request(ctx, func() { t.Error("a request whose client left ran") })
	fx.admit(t, left)
	next := fx.request(context.Background(), func() {})
	fx.admit(t, next)

	// The holder's run ends as tenant.run ends it: the turn goes to left ...
	fx.tn.pass()
	fx.tn.reg.inflight.Done()
	cancel() // ... as its client leaves
	res, ok := fx.tn.run(left)
	if !ok || !errors.Is(res.err, context.Canceled) {
		t.Fatalf("handed the turn as its client left: ok %v, err %v; want the turn and a canceled run", ok, res.err)
	}
	select {
	case <-next.turn:
	default:
		t.Fatal("the turn was not passed on")
	}
	if res, ok := fx.tn.run(next); !ok || res.err != nil || res.executed != 4 {
		t.Fatalf("next: ok %v, err %v, executed %d", ok, res.err, res.executed)
	}
}

// A drain finds one run in flight and two requests waiting: all three run
// to completion before it returns.
func TestTurnDrainWithWaiting(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	g := graphs.Chain(150) // ~150ms under the sleep kernel
	info := submitFlow(t, hs.URL, "", g)
	codes := make(chan runResult, 3)
	for i := 0; i < 3; i++ {
		go func() {
			var res runResult
			do(t, "POST", hs.URL+"/v1/flows/"+info.ID+"/run", "", []byte(`{"kernel":"sleep"}`), &res)
			codes <- res
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for progressOf(t, hs.URL, "").QueueLen < 2 {
		if time.Now().After(deadline) {
			t.Fatal("two requests never waited")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < 3; i++ {
		select {
		case res := <-codes:
			if res.Executed != int64(len(g.Tasks)) {
				t.Errorf("a request admitted before the drain executed %d tasks, want %d", res.Executed, len(g.Tasks))
			}
		case <-time.After(10 * time.Second):
			t.Fatal("drain returned before every admitted request answered")
		}
	}
	if resp := do(t, "POST", hs.URL+"/v1/flows/"+info.ID+"/run", "", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run after the drain: status %d, want 503", resp.StatusCode)
	}
}

// A tenant is a table entry and an engine: creating one starts no
// goroutine.
func TestTurnTenantStartsNoGoroutine(t *testing.T) {
	cfg := Config{Workers: 2, Logf: func(string, ...any) {}}
	cfg = cfg.withDefaults()
	r := newRegistry(cfg)
	before := runtime.NumGoroutine()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.tenant(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after creating three tenants, %d before", after, before)
	}
	if err := r.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWarmRequest is one warm request through the service's handler,
// no network: POST /v1/flows/{id}/run of a registered 12×12-tile Cholesky
// (364 tasks) with the noop kernel, answered into a ResponseRecorder. It
// settles at width 1 within a few runs, so a request is the routing, the
// body scan, the turn, the run and the JSON answer: what a warm rio-serve
// request costs above the socket.
func BenchmarkWarmRequest(b *testing.B) {
	s := New(Config{Workers: 2, Logf: func(string, ...any) {}})
	defer s.Drain(context.Background())
	h := s.Handler()
	serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec
	}
	var buf bytes.Buffer
	if err := graphs.Cholesky(12).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	var info flowInfo
	if err := json.Unmarshal(serve("POST", "/v1/flows", buf.Bytes()).Body.Bytes(), &info); err != nil {
		b.Fatal(err)
	}
	run, body := "/v1/flows/"+info.ID+"/run", []byte(`{"kernel":"noop"}`)
	for range 2 * reprobeEvery { // past the width probes
		serve("POST", run, body)
	}
	b.ReportAllocs()
	for b.Loop() {
		serve("POST", run, body)
	}
}
