package server

// The warm request's fixed cost: the run response written by hand, the
// pprof labels built once per (flow, kernel), the one context a run has
// (canceled by Config.Timeout, the client and a drain's abort), and the
// allocations a warm request makes.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"rio"
	"rio/internal/graphs"
)

// encoded is v as writeJSON writes it: json.Encoder with SetIndent("", "  ").
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRunResponseMatchesEncoder: the hand-written run response is, byte for
// byte, what encoding/json writes for it, for every string it may carry —
// quotes, backslashes, HTML's <, > and &, control bytes, non-ASCII text,
// invalid UTF-8 and the JavaScript line separators included.
func TestRunResponseMatchesEncoder(t *testing.T) {
	names := []string{
		"",
		"noop",
		"3f9c0d2b8e7a6154c3b2a1908f7e6d5c4b3a29180f7e6d5c4b3a29180f7e6d5c",
		`say "hi"`,
		`back\slash`,
		"<script>a && b</script>",
		"ctl\x00\x01\x07\x1f",
		"tab\tnew\nline\rback\bfeed\f",
		"del\x7f",
		"héllo wörld, 日本語",
		"line\u2028para\u2029sep",
		"bad utf-8 \xff\xfe and \xc3",
		"mixed <\u2028>\"\\é\x00",
	}
	for i, flow := range names {
		for _, kernel := range []string{names[len(names)-1-i], "spin"} {
			r := runResult{Flow: flow, Kernel: kernel, Executed: int64(i) * 1_000_003, Workers: i%3 + 1, WallNS: 1<<40 + int64(i), QueueNS: int64(i)}
			got, want := r.appendJSON(nil), encoded(t, r)
			if !bytes.Equal(got, want) {
				t.Errorf("flow %q, kernel %q:\n got %q\nwant %q", flow, kernel, got, want)
			}
		}
	}
}

// TestRunResponseThroughHandler: a run answered through Handler() carries the
// encoder's bytes and its Content-Type, for a kernel name that needs
// escaping.
func TestRunResponseThroughHandler(t *testing.T) {
	const kernel = "odd <\"name\"> & \u2028é"
	s := New(Config{Workers: 2, Logf: func(string, ...any) {}, Kernels: map[string]rio.Kernel{kernel: func(*rio.Task, rio.WorkerID) {}}})
	defer s.Drain(context.Background())
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/flows", bytes.NewReader(graphJSON(t, graphs.Cholesky(4)))))
	var info flowInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"kernel": kernel})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/flows/"+info.ID+"/run", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res runResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Flow != info.ID || res.Kernel != kernel || res.Executed != int64(len(graphs.Cholesky(4).Tasks)) {
		t.Errorf("response %+v", res)
	}
	if want := encoded(t, res); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("body\n %q\nwant %q", rec.Body.Bytes(), want)
	}
	if ct := rec.Header().Values("Content-Type"); len(ct) != 1 || ct[0] != "application/json" {
		t.Errorf("Content-Type %q, want one application/json", ct)
	}
}

// TestRunLabelsReachProfile: CPU samples of a run carry its rio_tenant,
// rio_flow and rio_kernel labels, at width 1 and at width 2 — where only
// worker 1, a goroutine the run spawns, spins, so the labels there must
// have been inherited from the handler goroutine. The profile is gunzipped
// and searched for the label strings, which a profile holds only when a
// sample carries them.
func TestRunLabelsReachProfile(t *testing.T) {
	const tenant, kernel = "labelprobe", "label_probe_spin"
	for _, workers := range []int{1, 2} {
		spinner := rio.WorkerID(workers - 1)
		s := New(Config{Workers: workers, Logf: func(string, ...any) {}, Kernels: map[string]rio.Kernel{
			kernel: func(_ *rio.Task, w rio.WorkerID) {
				for start := time.Now(); w == spinner && time.Since(start) < 4*time.Millisecond; {
				}
			},
		}})
		h := s.Handler()
		serve := func(target string, body []byte) *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", target, bytes.NewReader(body))
			req.Header.Set(TenantHeader, tenant)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
			}
			return rec
		}
		var info flowInfo
		if err := json.Unmarshal(serve("/v1/flows", graphJSON(t, graphs.Independent(2*64))).Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiling is taken: %v", err)
		}
		rec := serve("/v1/flows/"+info.ID+"/run", []byte(`{"kernel":"`+kernel+`"}`))
		pprof.StopCPUProfile()
		s.Drain(context.Background())
		var res runResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Workers != workers {
			t.Fatalf("the run took %d workers, want %d", res.Workers, workers)
		}
		zr, err := gzip.NewReader(&prof)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []string{"rio_tenant", tenant, "rio_flow", info.ID, "rio_kernel", kernel} {
			if !bytes.Contains(raw, []byte(label)) {
				t.Errorf("width %d: no CPU sample carries %q", workers, label)
			}
		}
	}
}

// TestDrainAbortCancelsRuns: a drain whose deadline has passed cancels the
// run in flight and the request that takes the turn after it, and both
// answer 503.
func TestDrainAbortCancelsRuns(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	info := submitFlow(t, hs.URL, "", graphs.Chain(5000)) // ≈5 s under the sleep kernel
	type answer struct {
		code int
		body string
	}
	answers := make(chan answer, 2)
	post := func() {
		resp, err := http.Post(hs.URL+"/v1/flows/"+info.ID+"/run", "application/json", strings.NewReader(`{"kernel":"sleep"}`))
		if err != nil {
			answers <- answer{body: err.Error()}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		answers <- answer{resp.StatusCode, string(raw)}
	}
	waitFor := func(what string, cond func(progressInfo) bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(progressOf(t, hs.URL, "")); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
		}
	}
	go post()
	waitFor("the first run starting", func(p progressInfo) bool { return p.Progress.Running })
	go post()
	waitFor("the second request waiting", func(p progressInfo) bool { return p.QueueLen == 1 })

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := s.Drain(expired); !errors.Is(err, context.Canceled) {
		t.Errorf("drain: %v, want the expired context's error", err)
	}
	for range 2 {
		a := <-answers
		if a.code != http.StatusServiceUnavailable || !strings.Contains(a.body, "execution canceled") {
			t.Errorf("answer %d %q, want 503 execution canceled", a.code, a.body)
		}
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("the aborted drain took %v: the runs were not canceled", took)
	}
}

// rewindBody is a request body the allocation test re-reads every request.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps one header map and reuses its
// body buffer, so a request through it allocates only what the server does.
type discardWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

// warmRequestAllocs is the ceiling of TestWarmRequestAllocs: the run's one
// context (2), its done channel and child table, where the engine's cancel
// callback registers (3), the callback's registration (2), the run's
// progress table and done channel (3), the execution request (1), the
// body's MaxBytesReader (1), the mux's path match (1), and now and then the
// kernel name read from the body.
const warmRequestAllocs = 14

// TestWarmRequestAllocs pins what a warm request allocates through
// Handler(): POST /v1/flows/{id}/run of a registered 12×12-tile Cholesky
// with the noop kernel, settled at width 1, into a writer and from a
// request that allocate nothing themselves (BenchmarkWarmRequest's request
// and recorder add about twenty).
func TestWarmRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations; the ceiling is for a plain build")
	}
	s := New(Config{Workers: 2, Logf: func(string, ...any) {}})
	defer s.Drain(context.Background())
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/flows", bytes.NewReader(graphJSON(t, graphs.Cholesky(12)))))
	var info flowInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	runBody := []byte(`{"kernel":"noop"}`)
	body := new(rewindBody)
	req := httptest.NewRequest("POST", "/v1/flows/"+info.ID+"/run", nil)
	req.Body = body
	w := &discardWriter{header: make(http.Header)}
	serve := func() {
		body.Reset(runBody)
		w.code = 0
		w.body.Reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body.Bytes())
		}
	}
	for range 2 * reprobeEvery { // past the width probes
		serve()
	}
	var res runResult
	if err := json.Unmarshal(w.body.Bytes(), &res); err != nil || res.Workers != 1 {
		t.Fatalf("the warm run: %+v, %v; want it settled at one worker", res, err)
	}
	if allocs := testing.AllocsPerRun(200, serve); allocs > warmRequestAllocs {
		t.Errorf("a warm request makes %.0f allocations, want at most %d", allocs, warmRequestAllocs)
	} else {
		t.Logf("a warm request makes %.0f allocations", allocs)
	}
}
