package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the q-th percentile (0..100) of v by linear
// interpolation between order statistics; v need not be sorted.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

// tail returns the highest of p90/p99/p99.9 that still has at least ten
// samples beyond it, and which percentile that was (0 when v is too small
// for any of them).
func tail(v []float64) (value, pct float64) {
	for _, q := range []float64{99.9, 99, 90} {
		if float64(len(v))*(100-q)/100 >= 10 {
			return percentile(v, q), q
		}
	}
	return 0, 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one benchmark-side trace record. Parent is the index of the
// parent span in the same file, -1 for a root; spans of one operation share
// OpID.
type span struct {
	Name   string `json:"name"`
	OpID   int64  `json:"op_id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer records nothing, which is how the untraced rounds run.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	counts  map[string]int64
	samples map[string][]float64 // µs per span name, plus observe'd values
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]int64{}, samples: map[string][]float64{}}
}

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, op, parent, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()})
	t.samples[name] = append(t.samples[name], micros(end.Sub(start)))
	return len(t.spans) - 1
}

// observe records a sample that is not an interval of its own, such as the
// part of a request's latency left after the server's share.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// write stores the spans as benchmark/out/trace_<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Counts   map[string]int64 `json:"counts"`
		Spans    []span           `json:"spans"`
	}{workload, seed, t.counts, t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s.json", workload))
	return os.WriteFile(path, data, 0o644)
}
