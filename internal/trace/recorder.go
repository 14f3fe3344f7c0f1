package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rio/internal/stf"
)

// Recorder collects per-task execution spans. The paper (§5.1) notes that
// dumping full traces at fine granularity perturbs the measurement — the
// reason its evaluation relies on the aggregate time decomposition
// instead. The Recorder exists for the *analysis* use case: inspecting a
// schedule on a moderate workload (Gantt timeline, per-kernel breakdown,
// critical-path utilization). Recording cost +43 % per task at 200-op
// granularity when last measured (EXPERIMENTS.md, "Design-choice
// ablations").
//
// Spans are appended to per-worker lanes; each lane is only touched by its
// worker, so recording is synchronization-free (two time stamps and an
// append per task).
type Recorder struct {
	start time.Time
	lanes [][]Span
}

// Span is one recorded task execution.
type Span struct {
	// Task is the task's ID, Kernel its kernel selector.
	Task   stf.TaskID
	Kernel int
	// Start and End are offsets from the recorder's epoch.
	Start, End time.Duration
	// Owner is the worker the static mapping assigned the task to, and
	// Stolen marks a span executed by a different worker (a work-stealing
	// thief under Options.Steal). Both are filled by InstrumentOwned only;
	// plain Instrument has no mapping to compare against.
	Owner  stf.WorkerID
	Stolen bool
}

// NewRecorder returns a recorder with one lane per worker plus a dedicated
// master lane (for spans recorded under a negative WorkerID — the control
// thread of the sequential and centralized engines). The epoch is the
// moment of the call.
func NewRecorder(workers int) *Recorder {
	return &Recorder{start: time.Now(), lanes: make([][]Span, workers+1)}
}

// lane maps a WorkerID to its lane index: workers keep their own index,
// every negative ID (the master) resolves to the dedicated last lane —
// master spans must not pollute worker 0's timeline.
func (r *Recorder) lane(w stf.WorkerID) int {
	if w < 0 {
		return len(r.lanes) - 1
	}
	return int(w)
}

// MasterSpans returns the spans recorded under negative worker IDs.
func (r *Recorder) MasterSpans() []Span { return r.lanes[len(r.lanes)-1] }

// Reset clears all lanes and restarts the epoch.
func (r *Recorder) Reset() {
	r.start = time.Now()
	for w := range r.lanes {
		r.lanes[w] = r.lanes[w][:0]
	}
}

// Instrument wraps k so every execution is recorded. Workers with negative
// IDs (a master executing inline, e.g. the sequential engine) record into
// the dedicated master lane, not worker 0's.
func (r *Recorder) Instrument(k stf.Kernel) stf.Kernel {
	return func(t *stf.Task, w stf.WorkerID) {
		lane := r.lane(w)
		s := time.Since(r.start)
		k(t, w)
		r.lanes[lane] = append(r.lanes[lane], Span{
			Task:   t.ID,
			Kernel: t.Kernel,
			Start:  s,
			End:    time.Since(r.start),
		})
	}
}

// InstrumentOwned is Instrument with the static mapping attached: each
// span records the task's owning worker, and spans executing on another
// worker are marked Stolen — the Chrome export then draws them in the
// thief's lane with a hand-off arrow from the owner. Tasks without a
// static owner (stf.SharedWorker under a partial mapping) are dynamically
// claimed, not stolen.
func (r *Recorder) InstrumentOwned(k stf.Kernel, owner stf.Mapping) stf.Kernel {
	return func(t *stf.Task, w stf.WorkerID) {
		lane := r.lane(w)
		o := owner(t.ID)
		s := time.Since(r.start)
		k(t, w)
		r.lanes[lane] = append(r.lanes[lane], Span{
			Task:   t.ID,
			Kernel: t.Kernel,
			Start:  s,
			End:    time.Since(r.start),
			Owner:  o,
			Stolen: w >= 0 && o >= 0 && o != w,
		})
	}
}

// Record appends a span directly (for closure tasks instrumented by hand).
func (r *Recorder) Record(w stf.WorkerID, s Span) {
	lane := r.lane(w)
	r.lanes[lane] = append(r.lanes[lane], s)
}

// Spans returns worker w's recorded spans in execution order.
func (r *Recorder) Spans(w int) []Span { return r.lanes[w] }

// Count returns the total number of recorded spans.
func (r *Recorder) Count() int {
	n := 0
	for _, l := range r.lanes {
		n += len(l)
	}
	return n
}

// Window returns the earliest start and latest end across all lanes.
func (r *Recorder) Window() (time.Duration, time.Duration) {
	first, last := time.Duration(-1), time.Duration(0)
	for _, lane := range r.lanes {
		for _, s := range lane {
			if first < 0 || s.Start < first {
				first = s.Start
			}
			if s.End > last {
				last = s.End
			}
		}
	}
	if first < 0 {
		first = 0
	}
	return first, last
}

// KernelStats aggregates span durations per kernel selector.
func (r *Recorder) KernelStats() map[int]KernelStat {
	out := map[int]KernelStat{}
	for _, lane := range r.lanes {
		for _, s := range lane {
			st := out[s.Kernel]
			st.Count++
			st.Total += s.End - s.Start
			if d := s.End - s.Start; d > st.Max {
				st.Max = d
			}
			out[s.Kernel] = st
		}
	}
	return out
}

// KernelStat is the per-kernel aggregate.
type KernelStat struct {
	// Count is the number of executions, Total their summed duration,
	// Max the longest single execution.
	Count int
	Total time.Duration
	Max   time.Duration
}

// Mean returns the average execution time.
func (k KernelStat) Mean() time.Duration {
	if k.Count == 0 {
		return 0
	}
	return k.Total / time.Duration(k.Count)
}

// Gantt renders an ASCII timeline: one row per worker, time bucketed into
// width columns; a bucket shows '#' when the worker spent more than half
// of it inside tasks, '+' for partially busy, '.' for idle.
func (r *Recorder) Gantt(w io.Writer, width int) error {
	if width < 1 {
		width = 80
	}
	first, last := r.Window()
	span := last - first
	if span <= 0 {
		_, err := fmt.Fprintln(w, "(no spans recorded)")
		return err
	}
	bucket := span / time.Duration(width)
	if bucket <= 0 {
		bucket = 1
	}
	for lane, spans := range r.lanes {
		if lane == len(r.lanes)-1 && len(spans) == 0 {
			continue // master lane: only shown when something ran on it
		}
		busy := make([]time.Duration, width)
		for _, s := range spans {
			for b := 0; b < width; b++ {
				bs := first + time.Duration(b)*bucket
				be := bs + bucket
				lo, hi := maxDur(s.Start, bs), minDur(s.End, be)
				if hi > lo {
					busy[b] += hi - lo
				}
			}
		}
		var row strings.Builder
		for _, d := range busy {
			switch {
			case d > bucket/2:
				row.WriteByte('#')
			case d > 0:
				row.WriteByte('+')
			default:
				row.WriteByte('.')
			}
		}
		label := fmt.Sprintf("w%-3d", lane)
		if lane == len(r.lanes)-1 {
			label = "m   " // the master lane
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, row.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "      0%*s\n", width, last.Round(time.Microsecond))
	return err
}

// TaskDurations returns the recorded duration of each of n tasks (zero
// for a task with no span; a task recorded twice keeps its later span).
// Spans whose task ID is outside [0, n), such as one recorded with
// stf.NoTask, belong to none of the n tasks and are skipped.
func (r *Recorder) TaskDurations(n int) []time.Duration {
	durs := make([]time.Duration, n)
	for _, s := range r.OrderedSpans() {
		if s.Task >= 0 && int(s.Task) < n {
			durs[s.Task] = s.End - s.Start
		}
	}
	return durs
}

// OrderedSpans returns all spans sorted by start time (for exporting).
func (r *Recorder) OrderedSpans() []Span {
	var all []Span
	for _, lane := range r.lanes {
		all = append(all, lane...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
