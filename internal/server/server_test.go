package server

// Integration harness: httptest servers over real engines, driven the
// way clients will drive rio-serve. The suite runs under -race in the
// dedicated serve-integration CI job; the three acceptance properties
// of the serving PR live here — N concurrent clients submitting the
// same graph trigger exactly one compile (cache misses == 1),
// submissions against a full queue get 429 with Retry-After, and a
// too-slow execution is canceled into a 504 mid-request.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"context"

	"rio"
	"rio/internal/analyze"
	"rio/internal/graphs"
	"rio/internal/server/ingest"
	"rio/internal/stf"
)

// newTestServer starts an httptest server over cfg and returns it with
// a cleanup that drains it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, hs
}

// graphJSON serializes g to its wire form.
func graphJSON(t *testing.T, g *stf.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// do issues one request with an optional tenant header and decodes the
// JSON response body into out (when out is non-nil).
func do(t *testing.T, method, url, tenant string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp
}

func submitFlow(t *testing.T, base, tenant string, g *stf.Graph) flowInfo {
	t.Helper()
	var info flowInfo
	resp := do(t, "POST", base+"/v1/flows", tenant, graphJSON(t, g), &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return info
}

func runFlow(t *testing.T, base, tenant, id, kernel string) runResult {
	t.Helper()
	var res runResult
	body := []byte(nil)
	if kernel != "" {
		body = []byte(fmt.Sprintf(`{"kernel":%q}`, kernel))
	}
	resp := do(t, "POST", base+"/v1/flows/"+id+"/run", tenant, body, &res)
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("run: status %d: %s", resp.StatusCode, raw)
	}
	return res
}

func progressOf(t *testing.T, base, tenant string) progressInfo {
	t.Helper()
	var p progressInfo
	resp := do(t, "GET", base+"/v1/progress", tenant, nil, &p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: status %d", resp.StatusCode)
	}
	return p
}

func TestSubmitRunRoundTrip(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, Verify: true})
	g := graphs.LU(4)

	info := submitFlow(t, hs.URL, "", g)
	if info.Cached {
		t.Error("first submission reported cached")
	}
	if info.Tasks != len(g.Tasks) || info.Data != g.NumData {
		t.Errorf("flow info %+v does not match the graph (%d tasks, %d data)", info, len(g.Tasks), g.NumData)
	}
	if !info.Verified {
		t.Error("flow not verified despite Config.Verify")
	}

	// Resubmitting the same bytes is a flow-level cache hit.
	again := submitFlow(t, hs.URL, "", g)
	if !again.Cached || again.ID != info.ID {
		t.Errorf("resubmission: cached=%v id=%q, want cached=true id=%q", again.Cached, again.ID, info.ID)
	}

	for i := 0; i < 3; i++ {
		res := runFlow(t, hs.URL, "", info.ID, "")
		if res.Executed != int64(len(g.Tasks)) {
			t.Fatalf("run %d executed %d tasks, want %d", i, res.Executed, len(g.Tasks))
		}
	}

	p := progressOf(t, hs.URL, "")
	if p.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (one compile serving every replay)", p.Cache.Misses)
	}
	if p.Cache.Entries != 1 || p.Flows != 1 {
		t.Errorf("entries/flows = %d/%d, want 1/1", p.Cache.Entries, p.Flows)
	}
	if got := p.Progress.Executed(); got != int64(len(g.Tasks)) {
		t.Errorf("progress executed = %d, want %d (last run's counters)", got, len(g.Tasks))
	}
}

// TestConcurrentSubmitSingleCompile is the acceptance property of the
// admission path: N concurrent clients submitting the same graph bytes
// must converge on one flow and exactly one compile+certify.
func TestConcurrentSubmitSingleCompile(t *testing.T) {
	const clients = 16
	_, hs := newTestServer(t, Config{Workers: 2, Verify: true})
	wire := graphJSON(t, graphs.Cholesky(5))

	var (
		wg    sync.WaitGroup
		gate  = make(chan struct{})
		infos [clients]flowInfo
	)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			<-gate
			resp := do(t, "POST", hs.URL+"/v1/flows", "", wire, &infos[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	close(gate)
	wg.Wait()

	for i := 1; i < clients; i++ {
		if infos[i].ID != infos[0].ID {
			t.Fatalf("client %d got flow %q, client 0 got %q", i, infos[i].ID, infos[0].ID)
		}
	}
	fresh := 0
	for i := range infos {
		if !infos[i].Cached {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d clients compiled fresh, want exactly 1 winner", fresh)
	}
	p := progressOf(t, hs.URL, "")
	if p.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 under %d concurrent submitters", p.Cache.Misses, clients)
	}
	if p.Flows != 1 {
		t.Errorf("flows = %d, want 1", p.Flows)
	}

	// And the shared program runs for everyone.
	res := runFlow(t, hs.URL, "", infos[0].ID, "spin")
	if res.Executed == 0 {
		t.Error("run executed no tasks")
	}
}

// TestConcurrentTenants drives separate tenants concurrently through
// submit/run/progress: engines, queues and caches must be isolated.
func TestConcurrentTenants(t *testing.T) {
	const tenants = 4
	_, hs := newTestServer(t, Config{Workers: 2})
	g := graphs.LU(4)
	wire := graphJSON(t, g)

	var wg sync.WaitGroup
	wg.Add(tenants)
	for i := 0; i < tenants; i++ {
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("team-%d", i)
			var info flowInfo
			resp := do(t, "POST", hs.URL+"/v1/flows", tenant, wire, &info)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: submit status %d", tenant, resp.StatusCode)
				return
			}
			for r := 0; r < 3; r++ {
				res := runFlow(t, hs.URL, tenant, info.ID, "noop")
				if res.Executed != int64(len(g.Tasks)) {
					t.Errorf("%s: run %d executed %d, want %d", tenant, r, res.Executed, len(g.Tasks))
				}
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		p := progressOf(t, hs.URL, fmt.Sprintf("team-%d", i))
		if p.Cache.Misses != 1 {
			t.Errorf("tenant %d: misses = %d, want 1 (per-tenant cache, one compile each)", i, p.Cache.Misses)
		}
	}
}

// TestQueueBackpressure is the 429 acceptance property: with a queue of
// depth 1, a request arriving while one run executes and another waits
// must be rejected with 429 and a Retry-After hint, and the queued work
// must still complete.
func TestQueueBackpressure(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 1, RetryAfter: 2 * time.Second})
	// ~300ms of off-CPU work per run: long enough to hold the queue
	// while the rejected request is issued.
	g := graphs.Chain(300)
	info := submitFlow(t, hs.URL, "", g)

	results := make(chan runResult, 2)
	for i := 0; i < 2; i++ {
		go func() {
			results <- runFlow(t, hs.URL, "", info.ID, "sleep")
		}()
	}
	// Wait until one run executes and the other occupies the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := progressOf(t, hs.URL, "")
		if p.QueueLen >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := do(t, "POST", hs.URL+"/v1/flows/"+info.ID+"/run", "", []byte(`{"kernel":"sleep"}`), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 against a full queue", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want %q", ra, "2")
	}

	for i := 0; i < 2; i++ {
		res := <-results
		if res.Executed != int64(len(g.Tasks)) {
			t.Errorf("admitted run executed %d tasks, want %d", res.Executed, len(g.Tasks))
		}
	}
}

// TestRequestTimeout is the mid-request-timeout acceptance property: an
// execution exceeding Config.Timeout is canceled cooperatively and the
// request answers 504.
func TestRequestTimeout(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, Timeout: 100 * time.Millisecond})
	// 2ms sleeps × 400 tasks ≈ 800ms of work against a 100ms budget.
	g := stf.NewGraph("slow", 1)
	for i := 0; i < 400; i++ {
		g.Add(0, 0, 0, 2, stf.RW(0))
	}
	info := submitFlow(t, hs.URL, "", g)

	start := time.Now()
	resp := do(t, "POST", hs.URL+"/v1/flows/"+info.ID+"/run", "", []byte(`{"kernel":"sleep"}`), nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, raw)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v to fire; cancellation is not prompt", elapsed)
	}
	// The engine must be healthy after the canceled run.
	fast := submitFlow(t, hs.URL, "", graphs.Chain(8))
	if res := runFlow(t, hs.URL, "", fast.ID, "noop"); res.Executed != 8 {
		t.Errorf("post-timeout run executed %d, want 8", res.Executed)
	}
}

// TestRequestTimeoutNamesBlockedWorkers: the 504 of a run Config.Timeout
// stops carries the run's error, which names where each worker was
// blocked. A one-datum RW chain under a submitted two-worker mapping (which
// pins the run at width 2) alternates between the workers, so while one
// sleeps in a body the other waits on data 0.
func TestRequestTimeoutNamesBlockedWorkers(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, Timeout: 50 * time.Millisecond})
	g := stf.NewGraph("slow-chain", 1)
	for i := 0; i < 200; i++ {
		g.Add(0, 0, 0, 2, stf.RW(0)) // 2ms under the sleep kernel
	}
	body, err := json.Marshal(map[string]any{
		"graph":   json.RawMessage(graphJSON(t, g)),
		"mapping": "cyclic",
		"kernel":  "sleep",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := do(t, "POST", hs.URL+"/v1/run", "", body, nil)
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, raw)
	}
	if !regexp.MustCompile(`worker [01] blocked at task \d+ waiting for RW access to data 0`).Match(raw) {
		t.Errorf("504 body names no blocked worker on data 0: %s", raw)
	}
}

// TestDrain exercises graceful shutdown: once Drain is called, new work
// is 503 and health flips, but the in-flight run finishes.
func TestDrain(t *testing.T) {
	// The wait hooks account every run, so the two cases differ only in
	// whether the drain finds the tenant's first run in flight or a later one.
	for _, c := range []struct {
		name    string
		earlier int // runs completed before the one the drain finds in flight
	}{{"accounted", 0}, {"unaccounted", 1}} {
		t.Run(c.name, func(t *testing.T) {
			s, hs := newTestServer(t, Config{Workers: 2})
			g := graphs.Chain(200) // ~200ms under the sleep kernel
			info := submitFlow(t, hs.URL, "", g)
			for i := 0; i < c.earlier; i++ {
				runFlow(t, hs.URL, "", info.ID, "noop")
			}

			done := make(chan runResult, 1)
			go func() { done <- runFlow(t, hs.URL, "", info.ID, "sleep") }()
			deadline := time.Now().Add(10 * time.Second)
			for !progressOf(t, hs.URL, "").Progress.Running {
				if time.Now().After(deadline) {
					t.Fatal("run never started")
				}
				time.Sleep(2 * time.Millisecond)
			}

			drained := make(chan error, 1)
			go func() { drained <- s.Drain(context.Background()) }()
			for !s.Draining() {
				time.Sleep(time.Millisecond)
			}

			if resp := do(t, "POST", hs.URL+"/v1/flows", "", graphJSON(t, graphs.Chain(4)), nil); resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
			}
			if resp := do(t, "GET", hs.URL+"/healthz", "", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
			}

			res := <-done
			if res.Executed != int64(len(g.Tasks)) {
				t.Errorf("in-flight run executed %d tasks, want %d (drain must not cancel it)", res.Executed, len(g.Tasks))
			}
			if err := <-drained; err != nil {
				t.Errorf("drain: %v", err)
			}
		})
	}
}

func TestSubmitErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})

	if resp := do(t, "POST", hs.URL+"/v1/flows", "", []byte("{not json"), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// A repeated key is malformed too — encoding/json ran this body as one
	// task {kernel 1, i 5} — and the answer says which key and where.
	var malformed struct {
		Error string `json:"error"`
	}
	dup := []byte(`{"name":"x","num_data":1,"tasks":[{"kernel":0,"i":5}],"tasks":[{"kernel":1}],"kernel":"noop"}`)
	if resp := do(t, "POST", hs.URL+"/v1/run", "", dup, &malformed); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(malformed.Error, `repeated key "tasks" (offset 54)`) {
		t.Errorf("repeated key: status %d, error %q, want 400 naming the key and its offset", resp.StatusCode, malformed.Error)
	}

	// Uninitialized read (a read before the flow's first write of the
	// data): the access lint reports a Warning, which rejects with 422
	// and the analysis report as the body — the same report rio-vet
	// would print for the same flow.
	bad := []byte(`{"name":"bad","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"R"}]},{"kernel":0,"accesses":[{"data":0,"mode":"W"}]}]}`)
	var report struct {
		Findings []struct {
			Code string `json:"code"`
		} `json:"findings"`
	}
	resp := do(t, "POST", hs.URL+"/v1/flows", "", bad, &report)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("uninit-read flow: status %d, want 422", resp.StatusCode)
	}
	if len(report.Findings) == 0 {
		t.Error("422 body carries no findings")
	}

	// A rejected flow is not registered: it must not shadow later
	// submissions or be runnable.
	if resp := do(t, "GET", hs.URL+"/v1/flows", "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	p := progressOf(t, hs.URL, "")
	if p.Flows != 0 {
		t.Errorf("rejected flow stayed registered (flows = %d)", p.Flows)
	}

	if resp := do(t, "POST", hs.URL+"/v1/flows", "bad tenant!", graphJSON(t, graphs.Chain(2)), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tenant name: status %d, want 400", resp.StatusCode)
	}
}

func TestRunErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	info := submitFlow(t, hs.URL, "", graphs.Chain(4))

	if resp := do(t, "POST", hs.URL+"/v1/flows/nope/run", "", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown flow: status %d, want 404", resp.StatusCode)
	}
	if resp := do(t, "POST", hs.URL+"/v1/flows/"+info.ID+"/run", "", []byte(`{"kernel":"warp"}`), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kernel: status %d, want 400", resp.StatusCode)
	}
	// On POST /v1/run the kernel is resolved before the flow is registered:
	// an unknown one leaves no flow, no compile and no kernel entry behind.
	warp := []byte(`{"kernel":"warp","graph":` + string(graphJSON(t, graphs.Chain(5))) + `}`)
	var refused struct {
		Error string `json:"error"`
	}
	if resp := do(t, "POST", hs.URL+"/v1/run", "", warp, &refused); resp.StatusCode != http.StatusBadRequest || refused.Error != `unknown kernel "warp"` {
		t.Errorf("one-shot run with an unknown kernel: status %d, error %q, want 400 naming it", resp.StatusCode, refused.Error)
	}
	if p := progressOf(t, hs.URL, ""); p.Flows != 1 || p.Cache.Misses != 1 || p.Kernels != nil {
		t.Errorf("after the unknown kernel: flows %d, misses %d, kernels %v; want the one flow submitted before, and no kernel measured", p.Flows, p.Cache.Misses, p.Kernels)
	}
	if resp := do(t, "GET", hs.URL+"/metrics", "ghost", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("metrics of unknown tenant: status %d, want 404", resp.StatusCode)
	}
	// The run body is {"kernel": "<name>"}: a kernel name that never ends
	// must be cut off at the body bound, not buffered.
	endless := append([]byte(`{"kernel":"`), bytes.Repeat([]byte("a"), 4*maxRunRequestBytes)...)
	if resp := do(t, "POST", hs.URL+"/v1/flows/"+info.ID+"/run", "", endless, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized run body: status %d, want 413", resp.StatusCode)
	}
}

// The run body is read as strictly as a submission: by the same scanner,
// with keys folded, null as absent, unknown members skipped and nothing
// after the object. An empty body is the defaults.
func TestRunBody(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	info := submitFlow(t, hs.URL, "", graphs.Chain(4))
	for _, tc := range []struct {
		body   string
		status int
		kernel string
	}{
		{"", http.StatusOK, "noop"},
		{" \n\t", http.StatusOK, "noop"},
		{"null", http.StatusOK, "noop"},
		{`{}`, http.StatusOK, "noop"},
		{`{"kernel":"spin"}`, http.StatusOK, "spin"},
		{`{"Kernel":"spin"}`, http.StatusOK, "spin"},
		{`{"kernel":null}`, http.StatusOK, "noop"},
		{`{"budget":[1,{"x":2}],"kernel":"spin"} ` + "\n", http.StatusOK, "spin"},
		// Trailing bytes: encoding/json's Decoder read one value and
		// ignored the rest, so this ran spin.
		{`{"kernel":"spin"}garbage`, http.StatusBadRequest, ""},
		{`{"kernel":"spin"} {}`, http.StatusBadRequest, ""},
		{`{"kernel":"spin","kernel":"noop"}`, http.StatusBadRequest, ""},
		{`{"kernel":5}`, http.StatusBadRequest, ""},
		{`["spin"]`, http.StatusBadRequest, ""},
		{`{"kernel":"spin"`, http.StatusBadRequest, ""},
	} {
		var res runResult
		resp := do(t, "POST", hs.URL+"/v1/flows/"+info.ID+"/run", "", []byte(tc.body), nil)
		if resp.StatusCode != tc.status {
			raw, _ := io.ReadAll(resp.Body)
			t.Errorf("body %q: status %d, want %d: %s", tc.body, resp.StatusCode, tc.status, raw)
			continue
		}
		if tc.status != http.StatusOK {
			continue
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.Kernel != tc.kernel || res.Executed != 4 {
			t.Errorf("body %q: ran kernel %q over %d tasks, want %q over 4", tc.body, res.Kernel, res.Executed, tc.kernel)
		}
	}
}

// A registered flow reports what it holds for its program — task table,
// accesses and stream words — and the progress cache block their sum.
func TestProgramBytes(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	g := stf.NewGraph("pin", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.R(0))
	// 2 tasks × 64 B, 2 accesses × 8 B, and under the cyclic mapping 6
	// words × 4 B a worker: worker 0 is task 0's task word, get, exec and
	// terminate, then task 1's task word and declare; worker 1 the mirror.
	const want = 2*64 + 2*8 + 2*6*4
	info := submitFlow(t, hs.URL, "", g)
	if info.ProgramBytes != want {
		t.Errorf("submit: program_bytes = %d, want %d", info.ProgramBytes, want)
	}
	var got flowInfo
	do(t, "GET", hs.URL+"/v1/flows/"+info.ID, "", nil, &got)
	var list struct{ Flows []flowInfo }
	do(t, "GET", hs.URL+"/v1/flows", "", nil, &list)
	if got.ProgramBytes != want || len(list.Flows) != 1 || list.Flows[0].ProgramBytes != want {
		t.Errorf("GET flow, list: program_bytes = %d, %+v, want %d", got.ProgramBytes, list.Flows, want)
	}
	submitFlow(t, hs.URL, "", graphs.Chain(3))
	var sum int64
	do(t, "GET", hs.URL+"/v1/flows", "", nil, &list)
	for _, f := range list.Flows {
		sum += f.ProgramBytes
	}
	if p := progressOf(t, hs.URL, ""); p.Cache.Bytes != sum || sum <= want {
		t.Errorf("progress cache bytes = %d, want the flows' sum %d", p.Cache.Bytes, sum)
	}
}

func TestOneShotRunWithMapping(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	g := graphs.LU(3)
	envelope := map[string]any{
		"graph":   json.RawMessage(graphJSON(t, g)),
		"mapping": map[string]any{"spec": "blockcyclic:2"},
		"kernel":  "spin",
	}
	body, err := json.Marshal(envelope)
	if err != nil {
		t.Fatal(err)
	}
	var res runResult
	resp := do(t, "POST", hs.URL+"/v1/run", "", body, &res)
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("one-shot run: status %d: %s", resp.StatusCode, raw)
	}
	if res.Executed != int64(len(g.Tasks)) {
		t.Errorf("executed %d tasks, want %d", res.Executed, len(g.Tasks))
	}
	if res.Kernel != "spin" {
		t.Errorf("kernel = %q, want spin", res.Kernel)
	}

	// The mapping is part of the flow identity: the same graph under the
	// default mapping is a different flow (and a second compile).
	var info flowInfo
	if resp := do(t, "POST", hs.URL+"/v1/flows", "", graphJSON(t, g), &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if info.Cached {
		t.Error("default-mapping flow aliased the blockcyclic one")
	}
	p := progressOf(t, hs.URL, "")
	if p.Flows != 2 || p.Cache.Misses != 2 {
		t.Errorf("flows/misses = %d/%d, want 2/2 (one compile per distinct mapping)", p.Flows, p.Cache.Misses)
	}
}

// TestSubmittedMappingGoverns is the regression test of the serving
// layer's mapping bug: a flow is vetted, hashed and listed under the
// mapping it was submitted with, so it must also run under it. The kernel
// records the worker each task executes on.
func TestSubmittedMappingGoverns(t *testing.T) {
	const tasks = 16
	var ranOn [tasks]atomic.Int32
	_, hs := newTestServer(t, Config{Workers: 2, Kernels: map[string]rio.Kernel{
		"whereami": func(tk *rio.Task, w rio.WorkerID) { ranOn[tk.ID].Store(int32(w)) },
	}})
	chain := string(graphJSON(t, graphs.Chain(tasks)))
	assign := make([]int, tasks) // the first twelve tasks on worker 0, the rest on worker 1
	for i := 12; i < tasks; i++ {
		assign[i] = 1
	}
	assignJSON, _ := json.Marshal(assign)

	flows := map[string]bool{}
	for _, c := range []struct {
		name, body, canonical string
		owner                 func(i int) int
	}{
		{"single:1", `{"kernel":"whereami","mapping":"single:1","graph":` + chain + `}`, "single:1",
			func(int) int { return 1 }},
		{"assign", `{"kernel":"whereami","mapping":{"assign":` + string(assignJSON) + `},"graph":` + chain + `}`,
			(&ingest.MappingSpec{Assign: assign}).Canonical(), func(i int) int { return assign[i] }},
		{"default", `{"kernel":"whereami","graph":` + chain + `}`, "cyclic",
			func(i int) int { return i % 2 }},
	} {
		for i := range ranOn {
			ranOn[i].Store(-1)
		}
		var res runResult
		if resp := do(t, "POST", hs.URL+"/v1/run", "", []byte(c.body), &res); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, resp.StatusCode)
		}
		for i := range ranOn {
			if got := int(ranOn[i].Load()); got != c.owner(i) {
				t.Errorf("%s: task %d ran on worker %d, its mapping names worker %d", c.name, i, got, c.owner(i))
			}
		}
		var info flowInfo
		do(t, "GET", hs.URL+"/v1/flows/"+res.Flow, "", nil, &info)
		if info.Mapping != c.canonical {
			t.Errorf("%s: flow lists mapping %q, want %q", c.name, info.Mapping, c.canonical)
		}
		flows[res.Flow] = true
	}
	if len(flows) != 3 {
		t.Errorf("one graph under three mappings registered %d flows, want 3", len(flows))
	}
}

// TestRejectedCertificateIs422: with Config.Verify a program that does not
// certify against the submitted mapping is refused like a preflight
// finding — 422 with the report. No honest compile produces one, so the
// submission's owner table, which the compiler reads, puts every task on
// worker 0 and its mapping, which the certifier asks, on worker 1: the
// certifier then sees every task on the wrong worker.
func TestRejectedCertificateIs422(t *testing.T) {
	s := New(Config{Workers: 2, Verify: true})
	g := graphs.Chain(8)
	sub := &ingest.Submission{Graph: g, Workers: 2, Owners: make([]stf.WorkerID, len(g.Tasks)),
		Mapping: func(stf.TaskID) stf.WorkerID { return 1 }}
	_, err := s.cfg.compile(sub, sub.Workers, sub.Mapping)
	var pf *analyze.PreflightError
	if !errors.As(err, &pf) {
		t.Fatalf("compile = %v, want a *analyze.PreflightError", err)
	}
	rec := httptest.NewRecorder()
	writeSubmitErr(rec, err)
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "RIO-V") {
		t.Errorf("status %d body %q, want 422 carrying the certificate's RIO-V findings", rec.Code, rec.Body.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	info := submitFlow(t, hs.URL, "", graphs.Chain(8))
	runFlow(t, hs.URL, "", info.ID, "noop")

	resp := do(t, "GET", hs.URL+"/metrics", "", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want the Prometheus exposition type", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{"rio_run_running", "rio_tasks_executed_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

func TestFlowTableBound(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, MaxFlows: 2})
	for n := 2; n <= 3; n++ {
		code := do(t, "POST", hs.URL+"/v1/flows", "", graphJSON(t, graphs.Chain(n)), nil).StatusCode
		if code != http.StatusOK {
			t.Fatalf("chain(%d): status %d", n, code)
		}
	}
	if code := do(t, "POST", hs.URL+"/v1/flows", "", graphJSON(t, graphs.Chain(4)), nil).StatusCode; code != http.StatusInsufficientStorage {
		t.Errorf("third flow: status %d, want 507 at MaxFlows", code)
	}
}

func TestTenantTableBound(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, MaxTenants: 1})
	submitFlow(t, hs.URL, "solo", graphs.Chain(2))
	if code := do(t, "POST", hs.URL+"/v1/flows", "intruder", graphJSON(t, graphs.Chain(2)), nil).StatusCode; code != http.StatusServiceUnavailable {
		t.Errorf("second tenant: status %d, want 503 at MaxTenants", code)
	}
}

// waitingFlow returns a flow of n >= 2 tasks on one datum that is certain
// to wait on two workers under the cyclic mapping and the "head-sleeps"
// kernel: task 0 (worker 0) writes the datum and sleeps a millisecond
// doing it, task 1 (worker 1) reads it and so waits that long, the rest
// read it too. A no-op Cholesky usually waits; this one always does.
func waitingFlow(n int) *stf.Graph {
	g := stf.NewGraph(fmt.Sprintf("waiting-%d", n), 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	for i := 1; i < n; i++ {
		g.Add(0, i, 0, 0, stf.R(0))
	}
	return g
}

// privateFlow returns a flow of two tasks that never waits under the
// cyclic mapping: task i writes datum i on worker i, so the two workers
// share nothing.
func privateFlow() *stf.Graph {
	g := stf.NewGraph("private", 2)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.W(1))
	return g
}

// submitPinned submits g under the mapping "blockcyclic:1": the cyclic
// assignment, but submitted, so it pins the run width at Config.Workers
// (a 1-worker run of a waitingFlow has nothing to wait on).
func submitPinned(t *testing.T, base, tenant string, g *stf.Graph) flowInfo {
	t.Helper()
	var info flowInfo
	body := `{"mapping":"blockcyclic:1","graph":` + string(graphJSON(t, g)) + `}`
	if resp := do(t, "POST", base+"/v1/flows", tenant, []byte(body), &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return info
}

var headSleeps = map[string]rio.Kernel{"head-sleeps": func(t *rio.Task, _ rio.WorkerID) {
	if t.ID == 0 {
		time.Sleep(time.Millisecond)
	}
}}

// metricsOf scrapes GET /metrics and returns the executed-task total and
// the completed-wait count summed over workers.
func metricsOf(t *testing.T, base, tenant string) (executed, waits int64) {
	t.Helper()
	resp := do(t, "GET", base+"/metrics", tenant, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		var n int64
		name, value, _ := strings.Cut(line, " ")
		fmt.Sscan(value, &n) // comment lines scan nothing and match no prefix
		switch {
		case strings.HasPrefix(name, "rio_tasks_executed_total{"):
			executed += n
		case strings.HasPrefix(name, "rio_wait_duration_seconds_count{"):
			waits += n
		}
	}
	return executed, waits
}

// waitsIn counts the completed waits in p's histogram.
func waitsIn(p rio.Progress) (n int64) {
	for _, b := range p.WaitHist() {
		n += b
	}
	return n
}

// TestWaitHistogramEveryRun pins what a client reads after each run: the
// response's executed count, /v1/progress and /metrics report the run that
// just finished (two flows of different sizes alternate, so a stale table
// would show), its wait histogram included — every run's waits are timed
// by the tenant engine's wait hooks. The flows are submitted under a
// mapping, which pins every run at two workers, so every run waits.
func TestWaitHistogramEveryRun(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, Kernels: headSleeps})
	flows := []*stf.Graph{waitingFlow(2), waitingFlow(3)}
	ids := []string{submitPinned(t, hs.URL, "", flows[0]).ID, submitPinned(t, hs.URL, "", flows[1]).ID}

	for run := 1; run <= 33; run++ {
		tasks := int64(len(flows[run%2].Tasks))
		if res := runFlow(t, hs.URL, "", ids[run%2], "head-sleeps"); res.Executed != tasks {
			t.Fatalf("run %d: response says %d tasks executed, want %d", run, res.Executed, tasks)
		}
		p := progressOf(t, hs.URL, "")
		if p.Runs.Total != int64(run) {
			t.Errorf("run %d: progress says runs %+v, want total %d", run, p.Runs, run)
		}
		if p.Progress.Running || p.Progress.Executed() != tasks {
			t.Errorf("run %d: progress says running %v, %d executed, want the finished run's %d", run, p.Progress.Running, p.Progress.Executed(), tasks)
		}
		if waitsIn(p.Progress) == 0 {
			t.Errorf("run %d: progress shows an empty wait histogram", run)
		}
		if executed, waits := metricsOf(t, hs.URL, ""); executed != tasks || waits == 0 {
			t.Errorf("run %d: metrics say %d executed, %d waits, want %d and at least one", run, executed, waits, tasks)
		}
	}
}

// TestWaitHistogramFresh: the wait histogram a scrape shows is the last
// run's, never an earlier one's. A run that waits is followed by one whose
// two workers share no datum, so nothing waits: /v1/progress and /metrics
// must then show no wait at all.
func TestWaitHistogramFresh(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, Kernels: headSleeps})
	waiting := submitPinned(t, hs.URL, "", waitingFlow(2))
	apart := submitPinned(t, hs.URL, "", privateFlow())

	runFlow(t, hs.URL, "", waiting.ID, "head-sleeps")
	if p := progressOf(t, hs.URL, ""); waitsIn(p.Progress) == 0 {
		t.Fatal("the waiting flow's run shows an empty wait histogram")
	}
	if res := runFlow(t, hs.URL, "", apart.ID, "head-sleeps"); res.Workers != 2 {
		t.Fatalf("the private flow ran at %d workers, want 2", res.Workers)
	}
	if p := progressOf(t, hs.URL, ""); waitsIn(p.Progress) != 0 || p.Progress.Executed() != 2 {
		t.Errorf("after a run that waited on nothing, progress shows %d waits and %d executed, want 0 and 2",
			waitsIn(p.Progress), p.Progress.Executed())
	}
	if executed, waits := metricsOf(t, hs.URL, ""); executed != 2 || waits != 0 {
		t.Errorf("after a run that waited on nothing, metrics say %d executed, %d waits, want 2 and 0", executed, waits)
	}
}

// TestWaitHistogramPerTenant: each tenant's histogram is its own runs'.
// Tenant a's flow waits and tenant b's does not, whichever ran last.
func TestWaitHistogramPerTenant(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, Kernels: headSleeps})
	a, b := submitPinned(t, hs.URL, "a", waitingFlow(2)), submitPinned(t, hs.URL, "b", privateFlow())
	runFlow(t, hs.URL, "a", a.ID, "head-sleeps")
	runFlow(t, hs.URL, "a", a.ID, "head-sleeps")
	runFlow(t, hs.URL, "b", b.ID, "head-sleeps")
	for tenant, want := range map[string]struct {
		total int64
		waits bool
	}{"a": {2, true}, "b": {1, false}} {
		p := progressOf(t, hs.URL, tenant)
		if p.Runs.Total != want.total {
			t.Errorf("tenant %s: runs %+v, want total %d", tenant, p.Runs, want.total)
		}
		if waited := waitsIn(p.Progress) > 0; waited != want.waits {
			t.Errorf("tenant %s: wait histogram %v, want waits %v", tenant, p.Progress.WaitHist(), want.waits)
		}
	}
}

// TestProgressScrapedAcrossEngines reads /v1/progress, /metrics and the
// flow's GET /v1/flows/{id} (its width state) from six goroutines, two per
// path, while 200 runs go through the tenant's engine, the flow's widths
// alternating and the wait histogram cleared before each: every scrape must answer a coherent snapshot (meaningful
// under -race, which is how the serve-integration CI job runs it).
func TestProgressScrapedAcrossEngines(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	g := graphs.LU(4)
	info := submitFlow(t, hs.URL, "", g)
	runFlow(t, hs.URL, "", info.ID, "noop") // the tenant and its counters exist from here on

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 6; i++ {
		path := []string{"/v1/progress", "/metrics", "/v1/flows/" + info.ID}[i%3]
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(hs.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d, %v", path, resp.StatusCode, err)
					return
				}
				if path != "/v1/progress" {
					continue
				}
				var p progressInfo
				if err := json.Unmarshal(raw, &p); err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if n := p.Progress.Executed(); n > int64(len(g.Tasks)) {
					t.Errorf("progress shows %d executed of %d tasks, runs %+v", n, len(g.Tasks), p.Runs)
				}
			}
		}()
	}
	for run := 0; run < 200; run++ {
		if res := runFlow(t, hs.URL, "", info.ID, "noop"); res.Executed != int64(len(g.Tasks)) {
			t.Errorf("run %d executed %d tasks, want %d", run, res.Executed, len(g.Tasks))
		}
	}
	close(stop)
	scrapers.Wait()
	if p := progressOf(t, hs.URL, ""); p.Runs.Total != 201 {
		t.Errorf("runs %+v, want total 201", p.Runs)
	}
}
