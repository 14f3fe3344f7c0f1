package trace_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rio/internal/core"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/stf"
	"rio/internal/trace"
)

func TestRecorderCapturesAllTasks(t *testing.T) {
	const p = 3
	g := graphs.LU(5)
	rec := trace.NewRecorder(p)
	cells := kernels.NewCells(p)
	kern := rec.Instrument(graphs.CounterKernel(cells, 200))

	e, err := core.New(core.Options{Workers: p, Mapping: sched.Cyclic(p)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(g.NumData, stf.Replay(g, kern)); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != len(g.Tasks) {
		t.Fatalf("recorded %d spans, want %d", rec.Count(), len(g.Tasks))
	}
	// Every span well-formed, lanes match the mapping.
	seen := make([]bool, len(g.Tasks))
	for w := 0; w < p; w++ {
		for _, s := range rec.Spans(w) {
			if s.End < s.Start {
				t.Fatalf("span %v ends before it starts", s)
			}
			if sched.Cyclic(p)(s.Task) != stf.WorkerID(w) {
				t.Fatalf("task %d recorded on lane %d, mapping says %d", s.Task, w, sched.Cyclic(p)(s.Task))
			}
			if seen[s.Task] {
				t.Fatalf("task %d recorded twice", s.Task)
			}
			seen[s.Task] = true
		}
	}
}

func TestRecorderKernelStats(t *testing.T) {
	rec := trace.NewRecorder(1)
	rec.Record(0, trace.Span{Task: 0, Kernel: 7, Start: 0, End: 10 * time.Microsecond})
	rec.Record(0, trace.Span{Task: 1, Kernel: 7, Start: 10 * time.Microsecond, End: 40 * time.Microsecond})
	rec.Record(0, trace.Span{Task: 2, Kernel: 9, Start: 40 * time.Microsecond, End: 45 * time.Microsecond})
	stats := rec.KernelStats()
	k7 := stats[7]
	if k7.Count != 2 || k7.Total != 40*time.Microsecond || k7.Max != 30*time.Microsecond {
		t.Errorf("kernel 7 stats = %+v", k7)
	}
	if k7.Mean() != 20*time.Microsecond {
		t.Errorf("kernel 7 mean = %v", k7.Mean())
	}
	if stats[9].Count != 1 {
		t.Errorf("kernel 9 stats = %+v", stats[9])
	}
	var zero trace.KernelStat
	if zero.Mean() != 0 {
		t.Error("zero-stat mean not 0")
	}
}

func TestRecorderWindowAndReset(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Record(0, trace.Span{Start: 5 * time.Microsecond, End: 9 * time.Microsecond})
	rec.Record(1, trace.Span{Start: 2 * time.Microsecond, End: 12 * time.Microsecond})
	first, last := rec.Window()
	if first != 2*time.Microsecond || last != 12*time.Microsecond {
		t.Errorf("window = [%v, %v]", first, last)
	}
	rec.Reset()
	if rec.Count() != 0 {
		t.Error("reset did not clear spans")
	}
}

func TestGanttRendering(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Record(0, trace.Span{Start: 0, End: 50 * time.Microsecond})
	rec.Record(1, trace.Span{Start: 50 * time.Microsecond, End: 100 * time.Microsecond})
	var buf bytes.Buffer
	if err := rec.Gantt(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), out)
	}
	// Worker 0 busy in the first half, worker 1 in the second.
	if !strings.HasPrefix(lines[0], "w0") || !strings.Contains(lines[0], "#") {
		t.Errorf("lane 0 = %q", lines[0])
	}
	if strings.Count(lines[0], "#") != strings.Count(lines[1], "#") {
		t.Errorf("asymmetric lanes:\n%s", out)
	}
	first0 := strings.IndexByte(lines[0], '#')
	first1 := strings.IndexByte(lines[1], '#')
	if first0 >= first1 {
		t.Errorf("worker 1's busy period should start later:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	rec := trace.NewRecorder(1)
	var buf bytes.Buffer
	if err := rec.Gantt(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans") {
		t.Errorf("empty gantt = %q", buf.String())
	}
}

// criticalPath is rio-trace's bound: the critical path and work of g
// under the durations rec recorded.
func criticalPath(rec *trace.Recorder, g *stf.Graph) (critical, work time.Duration) {
	durs := rec.TaskDurations(len(g.Tasks))
	return stf.CriticalPath(g, func(id stf.TaskID) time.Duration { return durs[id] })
}

func TestCriticalPath(t *testing.T) {
	const us = time.Microsecond
	for _, tc := range []struct {
		name  string
		extra []trace.Span // recorded on the master lane after the graph's spans
	}{
		{"graph spans only", nil},
		{"spans outside the graph skipped", []trace.Span{
			{Task: stf.NoTask, Start: 0, End: 50 * us},
			{Task: 4, Start: 0, End: 70 * us},
		}},
	} {
		// Chain of 3 tasks (10µs each) plus 1 independent task (5µs):
		// critical = 30µs, work = 35µs.
		g := stf.NewGraph("cp", 2)
		g.Add(0, 0, 0, 0, stf.RW(0))
		g.Add(0, 1, 0, 0, stf.RW(0))
		g.Add(0, 2, 0, 0, stf.RW(0))
		g.Add(0, 3, 0, 0, stf.RW(1))
		rec := trace.NewRecorder(1)
		for i := 0; i < 3; i++ {
			rec.Record(0, trace.Span{Task: stf.TaskID(i), Start: time.Duration(i*10) * us, End: time.Duration(i*10+10) * us})
		}
		rec.Record(0, trace.Span{Task: 3, Start: 30 * us, End: 35 * us})
		for _, s := range tc.extra {
			rec.Record(stf.MasterWorker, s)
		}
		critical, work := criticalPath(rec, g)
		if critical != 30*us {
			t.Errorf("%s: critical = %v, want 30µs", tc.name, critical)
		}
		if work != 35*us {
			t.Errorf("%s: work = %v, want 35µs", tc.name, work)
		}
	}
}

func TestOrderedSpans(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Record(1, trace.Span{Task: 1, Start: 30 * time.Microsecond, End: 31 * time.Microsecond})
	rec.Record(0, trace.Span{Task: 0, Start: 10 * time.Microsecond, End: 11 * time.Microsecond})
	all := rec.OrderedSpans()
	if len(all) != 2 || all[0].Task != 0 || all[1].Task != 1 {
		t.Errorf("ordered spans = %+v", all)
	}
}

// TestCriticalPathOnRealRun checks what holds on every schedule, however
// the machine stretches the measured durations: along a dependency chain
// the recorded spans are ordered and disjoint, so the critical path of the
// recorded durations fits in the recorded makespan (last End − first
// Start); each worker's spans are disjoint, so the work fits in p
// makespans; and the work is the sum of the recorded spans. The
// wavefront's shape is TestCriticalPathUniformWavefront's, on unit
// durations: a descheduled task inflates one measured duration and moves
// the measured ratio work/critical anywhere.
func TestCriticalPathOnRealRun(t *testing.T) {
	const p = 2
	g := graphs.Wavefront(5, 5)
	rec := trace.NewRecorder(p)
	cells := kernels.NewCells(p)
	kern := rec.Instrument(graphs.CounterKernel(cells, 2000))
	e, err := core.New(core.Options{Workers: p, Mapping: sched.Cyclic(p)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(g.NumData, stf.Replay(g, kern)); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != len(g.Tasks) {
		t.Fatalf("recorded %d spans, want %d", rec.Count(), len(g.Tasks))
	}
	critical, work := criticalPath(rec, g)
	first, last := rec.Window()
	makespan := last - first
	if critical <= 0 || critical > makespan {
		t.Errorf("critical path %v outside (0, makespan %v]", critical, makespan)
	}
	if work > p*makespan {
		t.Errorf("work %v exceeds p × makespan = %v", work, p*makespan)
	}
	var spans time.Duration
	for _, s := range rec.OrderedSpans() {
		spans += s.End - s.Start
	}
	if work != spans {
		t.Errorf("work %v, want the sum of the recorded spans %v", work, spans)
	}
}

// TestCriticalPathUniformWavefront: on a 5×5 wavefront of unit tasks the
// critical path is one anti-diagonal walk of 9 cells and the work is 25,
// so work/critical = 25/9.
func TestCriticalPathUniformWavefront(t *testing.T) {
	g := graphs.Wavefront(5, 5)
	critical, work := stf.CriticalPath(g, func(stf.TaskID) time.Duration { return 1 })
	if critical != 9 || work != 25 {
		t.Errorf("critical = %d, work = %d, want 9 and 25", critical, work)
	}
}
