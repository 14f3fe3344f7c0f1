package trace

import (
	"fmt"
	"io"
)

// WriteMetrics writes a Progress snapshot in the Prometheus text
// exposition format (one scrape's worth of samples; pair it with an HTTP
// handler that snapshots the engine per request). Counters reset when a
// new run starts: each run publishes a fresh table, so a scraper sees a
// per-run progression, not a process-lifetime total.
//
// The wait histogram is emitted in cumulative Prometheus convention
// (bucket le="0.001" counts all waits at most 1ms). No _sum series is
// emitted: the engines bucket wait durations without totalling them —
// one atomic increment per wait keeps the always-on cost flat.
func WriteMetrics(w io.Writer, p Progress) error {
	running := 0
	if p.Running {
		running = 1
	}
	ew := &errWriter{w: w}
	ew.printf("# HELP rio_run_running Whether a run is currently in flight.\n")
	ew.printf("# TYPE rio_run_running gauge\n")
	ew.printf("rio_run_running %d\n", running)

	for _, s := range counterSeries {
		ew.printf("# HELP %s %s\n", s.name, s.help)
		ew.printf("# TYPE %s counter\n", s.name)
		for i := range p.Workers {
			ew.printf("%s{worker=\"%d\"} %d\n", s.name, i, s.value(&p.Workers[i].Counters))
		}
	}
	ew.printf("# HELP rio_worker_current_task Task ID the worker is executing, -1 when idle.\n")
	ew.printf("# TYPE rio_worker_current_task gauge\n")
	for i := range p.Workers {
		ew.printf("rio_worker_current_task{worker=\"%d\"} %d\n", i, int64(p.Workers[i].Current))
	}
	ew.printf("# HELP rio_wait_duration_seconds Completed dependency-wait durations, per worker.\n")
	ew.printf("# TYPE rio_wait_duration_seconds histogram\n")
	for i := range p.Workers {
		var cum int64
		for b, n := range p.Workers[i].WaitHist {
			cum += n
			if b < len(WaitBucketBounds) {
				ew.printf("rio_wait_duration_seconds_bucket{worker=\"%d\",le=\"%g\"} %d\n",
					i, WaitBucketBounds[b].Seconds(), cum)
			} else {
				ew.printf("rio_wait_duration_seconds_bucket{worker=\"%d\",le=\"+Inf\"} %d\n", i, cum)
			}
		}
		ew.printf("rio_wait_duration_seconds_count{worker=\"%d\"} %d\n", i, cum)
	}
	return ew.err
}

// counterSeries are the Prometheus counters of the five Counters, in
// exposition order, one sample per worker each.
var counterSeries = [...]struct {
	name, help string
	value      func(*Counters) int64
}{
	{"rio_tasks_executed_total", "Tasks executed so far, per worker.", func(c *Counters) int64 { return c.Executed }},
	{"rio_tasks_declared_total", "Declare-only task visits so far, per worker.", func(c *Counters) int64 { return c.Declared }},
	{"rio_tasks_claimed_total", "Dynamically claimed executions so far, per worker.", func(c *Counters) int64 { return c.Claimed }},
	{"rio_tasks_stolen_total", "Stolen task executions so far, per worker (thief side).", func(c *Counters) int64 { return c.Stolen }},
	{"rio_steal_failed_total", "Steal attempts that lost the claim race so far, per worker.", func(c *Counters) int64 { return c.StealFailed }},
}

// errWriter latches the first write error so the exposition code above
// stays a flat list of printf lines.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
