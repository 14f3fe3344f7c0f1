package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRejectionsUnchanged pins what a malformed or rejected flow gets
// back, status and body, from both submission endpoints. Each check runs
// once on the cold path, wherever it runs, and must answer as it did when
// every stage checked the flow again — bar a negative single:W, which the
// mapping parser rejects before preflight analyzes the flow.
func TestRejectionsUnchanged(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	flow := func(tasks string) string { // a bare graph without its closing brace
		return `{"name":"r","num_data":2,"tasks":[` + tasks + `]`
	}
	errBody := func(msg string) string { return "{\n  \"error\": " + msg + "\n}" }
	// The lint's findings on one task, in the order the report lists them.
	const lintReport = `{
  "num_data": 3,
  "tasks": 2,
  "findings": [
    {
      "code": "RIO-A010",
      "severity": "warning",
      "task": 0,
      "data": 0,
      "worker": -1,
      "message": "read of data 0 before any task wrote it (first write comes later in the flow)"
    },
    {
      "code": "RIO-A012",
      "severity": "warning",
      "task": 0,
      "data": 1,
      "worker": -1,
      "message": "write to data 1 by task 0 is dead: overwritten by task 1 with no read in between"
    },
    {
      "code": "RIO-A013",
      "severity": "info",
      "task": -1,
      "data": 2,
      "worker": -1,
      "message": "data 2 is registered but never accessed"
    }
  ],
  "errors": 0,
  "warnings": 2,
  "infos": 1
}`
	ok := flow(`{"kernel":0,"accesses":[{"data":0,"mode":"W"}]},{"kernel":0,"accesses":[{"data":0,"mode":"R"},{"data":1,"mode":"W"}]}`)
	for _, tc := range []struct {
		name   string
		body   string // without its closing brace: each endpoint adds its members
		status int
		want   string
	}{
		{"data out of range", flow(`{"kernel":0,"accesses":[{"data":2,"mode":"W"}]}`), http.StatusBadRequest,
			errBody(`"ingest: stf: task 0 accesses data 2, out of range (outside [0,2))"`)},
		{"unknown mode", flow(`{"kernel":0,"accesses":[{"data":0,"mode":"W"}]},{"kernel":0,"accesses":[{"data":1,"mode":"Q"}]}`), http.StatusBadRequest,
			errBody(`"ingest: task 1: access 0: unknown access mode \"Q\" (offset 123)"`)},
		{"repeated datum", flow(`{"kernel":0,"accesses":[{"data":0,"mode":"W"},{"data":0,"mode":"R"}]}`), http.StatusBadRequest,
			errBody(`"ingest: stf: task 0 accesses data 0 more than once"`)},
		{"explicit mapping out of range", `{"graph":` + ok + `},"mapping":{"assign":[0,5]}`, http.StatusBadRequest,
			errBody(`"ingest: explicit mapping sends task 1 to worker 5, out of range [0,2)"`)},
		{"explicit mapping too short", `{"graph":` + ok + `},"mapping":{"assign":[0]}`, http.StatusBadRequest,
			errBody(`"ingest: explicit mapping assigns 1 tasks, flow has 2"`)},
		{"parametric mapping out of range", `{"graph":` + ok + `},"mapping":"single:7"`, http.StatusBadRequest,
			errBody(`"sched: mapping(0) = 7 out of range [0,2)"`)},
		{"negative worker", `{"graph":` + ok + `},"mapping":"single:-1"`, http.StatusBadRequest,
			errBody(`"analyze: negative worker in \"single:-1\""`)},
		{"shared tasks", `{"graph":` + ok + `},"mapping":"single:-2"`, http.StatusBadRequest,
			errBody(`"analyze: negative worker in \"single:-2\""`)},
		{"lint findings", `{"name":"r","num_data":3,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"R"},{"data":1,"mode":"W"}]},` +
			`{"kernel":0,"accesses":[{"data":1,"mode":"W"},{"data":0,"mode":"W"}]}]`, http.StatusUnprocessableEntity, lintReport},
	} {
		for _, ep := range []struct{ path, tail string }{{"/v1/run", `,"kernel":"noop"}`}, {"/v1/flows", `}`}} {
			resp := do(t, "POST", hs.URL+ep.path, "", []byte(tc.body+ep.tail), nil)
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.TrimSpace(string(raw)); resp.StatusCode != tc.status || got != tc.want {
				t.Errorf("%s, POST %s: %d %s\nwant %d %s", tc.name, ep.path, resp.StatusCode, got, tc.status, tc.want)
			}
		}
	}
	if p := progressOf(t, hs.URL, ""); p.Flows != 0 {
		t.Errorf("%d rejected flows stayed registered", p.Flows)
	}
}
