package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
	"time"
)

// RenderRows writes rows as an aligned text table, the format the
// cmd/rio-bench CLI prints. Efficiency and CPU columns are shown only when
// at least one row carries them.
func RenderRows(w io.Writer, rows []Row) error {
	withEff, withCPU := false, false
	for _, r := range rows {
		withEff = withEff || r.Eff != (effZero)
		withCPU = withCPU || r.CPU != 0
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	head := "experiment\tworkload\tengine\tp\ttask-size\ttasks\twall\tper-task"
	if withCPU {
		head += "\tcpu"
	}
	if withEff {
		head += "\te_g\te_l\te_p\te_r\te"
	}
	fmt.Fprintln(tw, head)
	for _, r := range rows {
		base := fmt.Sprintf("%s\t%s\t%s\t%d\t%d\t%d\t%s\t%s",
			r.Experiment, r.Workload, r.Engine,
			r.Workers, r.TaskSize, r.Tasks, fmtDur(r.Wall), fmtDur(r.PerTask))
		if withCPU {
			base += "\t" + fmtDur(r.CPU)
		}
		if withEff {
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n", base,
				r.Eff.Granularity, r.Eff.Locality, r.Eff.Pipelining, r.Eff.Runtime, r.Eff.Parallel)
		} else {
			fmt.Fprintln(tw, base)
		}
	}
	return tw.Flush()
}

var effZero = Row{}.Eff

// WriteCSV emits rows as CSV for external plotting.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	header := []string{"experiment", "workload", "engine", "workers", "task_size", "tasks",
		"wall_ns", "per_task_ns", "cpu_ns", "e_g", "e_l", "e_p", "e_r", "e"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Experiment, r.Workload, r.Engine,
			strconv.Itoa(r.Workers),
			strconv.FormatUint(r.TaskSize, 10),
			strconv.FormatInt(r.Tasks, 10),
			strconv.FormatInt(r.Wall.Nanoseconds(), 10),
			strconv.FormatInt(r.PerTask.Nanoseconds(), 10),
			strconv.FormatInt(r.CPU.Nanoseconds(), 10),
			fmtF(r.Eff.Granularity), fmtF(r.Eff.Locality),
			fmtF(r.Eff.Pipelining), fmtF(r.Eff.Runtime), fmtF(r.Eff.Parallel),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonRow is the machine-readable perf-trajectory record: one benchmark
// point with its headline ns/task. BENCH_*.json artifacts (CI bench-smoke)
// are arrays of these; keeping the schema flat lets trajectory tooling diff
// files from different commits. Fields are added, not renamed; the one
// removed field is the wait policy, whose value also ended a sync row's
// name ("/adaptive"), so older sync rows carry that suffix.
type jsonRow struct {
	// Name is the fully-qualified benchmark name:
	// experiment/workload/engine.
	Name       string  `json:"name"`
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Engine     string  `json:"engine"`
	Workers    int     `json:"workers"`
	TaskSize   uint64  `json:"task_size"`
	Tasks      int64   `json:"tasks"`
	WallNs     int64   `json:"wall_ns"`
	NsPerTask  float64 `json:"ns_per_task"`
	CPUNs      int64   `json:"cpu_ns,omitempty"`
}

// WriteJSON emits rows as an indented JSON array of perf-trajectory
// records (the cmd/rio-bench -json format).
func WriteJSON(w io.Writer, rows []Row) error {
	out := make([]jsonRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, jsonRow{
			Name:       r.Experiment + "/" + r.Workload + "/" + r.Engine,
			Experiment: r.Experiment, Workload: r.Workload,
			Engine: r.Engine, Workers: r.Workers,
			TaskSize: r.TaskSize, Tasks: r.Tasks,
			WallNs:    r.Wall.Nanoseconds(),
			NsPerTask: float64(r.PerTask.Nanoseconds()),
			CPUNs:     r.CPU.Nanoseconds(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// RenderCostModel writes a cost-model validation report.
func RenderCostModel(w io.Writer, rep *CostModelReport) error {
	fmt.Fprintf(w, "fitted per-task runtime cost: centralized t_r = %s, rio t_r = %s\n",
		fmtDur(rep.TrCentralized), fmtDur(rep.TrRIO))
	fmt.Fprintf(w, "counter kernel: %.3f ns/op; predicted centralized crossover ≈ %d ops/task\n",
		rep.NsPerOp, rep.CrossoverOps)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\ttask-size\tmeasured\tpredicted\trel-err")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%.0f%%\n",
			r.Engine, r.TaskSize, fmtDur(r.Measured), fmtDur(r.Predicted), 100*r.RelErr)
	}
	return tw.Flush()
}

// fmtDur rounds durations for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	default:
		return d.String()
	}
}

func fmtF(f float64) string { return strconv.FormatFloat(f, 'f', 4, 64) }
