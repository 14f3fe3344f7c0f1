package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rio/internal/stf"
	"rio/internal/trace"
)

func TestWriteMetricsExposition(t *testing.T) {
	p := trace.Progress{
		Running: true,
		Workers: trace.Workers{
			{Counters: trace.Counters{Executed: 5, Declared: 7, Claimed: 1, Stolen: 4}, Current: 12},
			{Counters: trace.Counters{Executed: 3, Declared: 9, StealFailed: 8}, Current: stf.NoTask},
		},
	}
	p.Workers[0].WaitHist[0] = 2 // < 1µs
	p.Workers[0].WaitHist[3] = 1 // < 1ms
	var buf bytes.Buffer
	if err := trace.WriteMetrics(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rio_run_running 1",
		`rio_tasks_executed_total{worker="0"} 5`,
		`rio_tasks_executed_total{worker="1"} 3`,
		`rio_tasks_declared_total{worker="1"} 9`,
		`rio_tasks_claimed_total{worker="0"} 1`,
		`rio_tasks_stolen_total{worker="0"} 4`,
		`rio_steal_failed_total{worker="1"} 8`,
		"# HELP rio_steal_failed_total Steal attempts that lost the claim race so far, per worker.\n# TYPE rio_steal_failed_total counter\n",
		`rio_worker_current_task{worker="0"} 12`,
		`rio_worker_current_task{worker="1"} -1`,
		// Histogram buckets are cumulative: the 1ms bucket includes the
		// two sub-µs waits plus the sub-ms one.
		`rio_wait_duration_seconds_bucket{worker="0",le="1e-06"} 2`,
		`rio_wait_duration_seconds_bucket{worker="0",le="0.001"} 3`,
		`rio_wait_duration_seconds_bucket{worker="0",le="+Inf"} 3`,
		`rio_wait_duration_seconds_count{worker="0"} 3`,
		"# TYPE rio_wait_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// A Progress snapshot's JSON is a wire format (rio-serve's GET
// /v1/progress, expvar): the counters' names and order are pinned, and the
// times a Stats reading adds never show.
func TestProgressJSONWireFormat(t *testing.T) {
	p := trace.Progress{Running: true, Workers: trace.Workers{{
		Counters: trace.Counters{Executed: 1, Declared: 2, Claimed: 3, Stolen: 6, StealFailed: 7},
		Current:  stf.NoTask, WaitHist: [trace.NumWaitBuckets]int64{8}, Task: 9, Wall: 10,
	}}}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"running":true,"workers":[{"executed":1,"declared":2,"claimed":3,"stolen":6,"steal_failed":7,"current":-1,"wait_hist":[8,0,0,0,0,0,0,0]}]}`
	if string(b) != want {
		t.Errorf("Progress JSON =\n%s\nwant\n%s", b, want)
	}
}

func TestWaitBucketBoundaries(t *testing.T) {
	type bucketCase struct {
		d    time.Duration
		want int
	}
	cases := []bucketCase{
		{0, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 0}, // a bound is inclusive, like Prometheus' le
		{999 * time.Microsecond, 3},
		{time.Hour, trace.NumWaitBuckets - 1},
	}
	// A wait of exactly a bound lands in that bound's bucket, one a
	// nanosecond longer in the next (past the last bound: the overflow).
	for i, b := range trace.WaitBucketBounds {
		cases = append(cases, bucketCase{b, i}, bucketCase{b + 1, i + 1})
	}
	for _, c := range cases {
		if got := trace.WaitBucket(c.d); got != c.want {
			t.Errorf("WaitBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
