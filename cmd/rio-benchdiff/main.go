// Command rio-benchdiff compares ledger runs of one workload, a parent
// commit's against a change's:
//
//	rio-benchdiff [-spec BENCHMARK.json] parent.jsonl change.jsonl
//
// Each file holds one result line per run, the JSON object `bash
// benchmark/run.sh --workload W --seed S ...` prints last; the i-th lines of
// the two files are one pair, run back to back. Per metric it prints each
// side's quartiles (linear interpolation between order statistics), the
// median difference relative to the parent's median, the pairs in which the
// change was better (ties count for neither) and a verdict, with direction
// and bound from BENCHMARK.json:
//
//   - regression: the median worse than the parent's by more than the bound;
//   - gain: of ten pairs or more, better in at least nine in ten, and the
//     median better by more than the parent's quartile distance;
//   - unresolved: the parent's quartile distance exceeds the bound (relative
//     to its median) and not every change run beats every parent run;
//   - within bound: none of these.
//
// Per-layer metrics have no bound and are not gated. Exit status: 1 on an
// end-to-end regression or a larger failed share, 2 on bad input, else 0.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rio-benchdiff:", err)
		if errors.Is(err, errWorse) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// errWorse marks a regression or a larger failed share; any other error is bad input.
var errWorse = errors.New("worse than the parent")

// metric is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // zero, as for every per-layer metric: not gated
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rio-benchdiff", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark contract `file` defining each metric's direction and bound")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rio-benchdiff [-spec BENCHMARK.json] parent.jsonl change.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("want two files of ledger result lines, the parent's first")
	}
	defs, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	var sides [2]*runs
	for i := range sides {
		if sides[i], err = readRuns(fs.Arg(i), defs); err != nil {
			return err
		}
	}
	parent, change := sides[0], sides[1]
	n := parent.n
	if n == 0 || change.n != n {
		return fmt.Errorf("%d parent runs against %d change runs: the i-th lines of the two files must form a pair", n, change.n)
	}
	// The change's failed share exceeds the parent's, cross-multiplied.
	moreFailed := change.failed*parent.attempted > parent.failed*change.attempted

	fmt.Fprintf(stdout, "%d pairs; failed: parent %d of %d, change %d of %d\n",
		n, parent.failed, parent.attempted, change.failed, change.attempted)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tparent q1 / median / q3\tchange q1 / median / q3\tmedian\tbetter in\tverdict")
	var worse []string
	for _, d := range defs {
		p, c := parent.values[d.Name], change.values[d.Name]
		if p == nil && c == nil {
			continue
		}
		if len(p) != n || len(c) != n {
			return fmt.Errorf("metric %s is missing from some runs", d.Name)
		}
		r := compare(d, p, c, moreFailed)
		fmt.Fprintf(tw, "%s\t%s\t%s / %s / %s\t%s / %s / %s\t%+.1f %%\t%d of %d\t%s\n", d.Name, d.Unit,
			num(r.parent[0]), num(r.parent[1]), num(r.parent[2]),
			num(r.change[0]), num(r.change[1]), num(r.change[2]),
			100*r.diff, r.wins, n, r.verdict)
		if r.verdict == "regression" {
			worse = append(worse, d.Name)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if moreFailed {
		worse = append(worse, "failed share")
	}
	if len(worse) > 0 {
		return fmt.Errorf("%w: %s", errWorse, strings.Join(worse, ", "))
	}
	return nil
}

// readSpec returns the metrics BENCHMARK.json defines, end-to-end first.
func readSpec(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := append(spec.EndToEnd, spec.PerLayer...)
	for i, m := range defs {
		if m.Better != "lower" && m.Better != "higher" || (i < len(spec.EndToEnd)) != (m.Bound > 0) {
			return nil, fmt.Errorf("%s: metric %s: want better lower or higher, and a bound on end-to-end metrics only", path, m.Name)
		}
	}
	return defs, nil
}

// runs is one side: each metric's values in run order, operations attempted and failed.
type runs struct {
	n, attempted, failed int
	values               map[string][]float64
}

func readRuns(path string, defs []metric) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defined := make(map[string]bool, len(defs))
	for _, d := range defs {
		defined[d.Name] = true
	}
	rs := &runs{values: map[string][]float64{}}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var r struct {
			Attempted int `json:"attempted"`
			Failed    int `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for name, m := range r.Metrics {
			if !defined[name] {
				return nil, fmt.Errorf("%s:%d: metric %q is not defined in the benchmark contract", path, line, name)
			}
			rs.values[name] = append(rs.values[name], m.Value)
		}
		rs.n++
		rs.attempted += r.Attempted
		rs.failed += r.Failed
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// comparison is one metric's line of the report.
type comparison struct {
	parent, change [3]float64 // first quartile, median, third quartile
	diff           float64    // change median − parent median, over the parent median
	wins           int        // pairs in which the change was better
	verdict        string
}

// compare applies the package comment's rules to one metric's runs in pair
// order, p the parent's; a gain does not count while more operations fail.
func compare(d metric, p, c []float64, moreFailed bool) comparison {
	sign := 1.0 // worse is sign·(change − parent) > 0
	if d.Better == "higher" {
		sign = -1
	}
	r := comparison{parent: quartiles(p), change: quartiles(c)}
	for i := range p {
		if sign*(c[i]-p[i]) < 0 {
			r.wins++
		}
	}
	base := math.Abs(r.parent[1])
	if r.change[1] != r.parent[1] {
		r.diff = (r.change[1] - r.parent[1]) / base
	}
	spread := r.parent[2] - r.parent[0]
	separated := true // every run of the change better than every run of the parent
	for _, x := range p {
		for _, y := range c {
			separated = separated && sign*(y-x) < 0
		}
	}
	switch {
	case d.Bound == 0:
		r.verdict = "not gated"
	case sign*r.diff > d.Bound:
		r.verdict = "regression"
	case !moreFailed && len(p) >= 10 && 10*r.wins >= 9*len(p) && -sign*(r.change[1]-r.parent[1]) > spread:
		r.verdict = "gain"
	case spread > d.Bound*base && !separated:
		r.verdict = "unresolved"
	default:
		r.verdict = "within bound"
	}
	return r
}

// quartiles interpolates linearly between order statistics: the q-quantile
// of n sorted values lies at rank q·(n−1).
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for i := range q {
		h := float64(i+1) / 4 * float64(len(s)-1)
		lo := int(h)
		q[i] = s[lo] + (h-float64(lo))*(s[min(lo+1, len(s)-1)]-s[lo])
	}
	return q
}

// num prints v with at least four significant digits and no exponent.
func num(v float64) string {
	if v == 0 {
		return "0"
	}
	return strconv.FormatFloat(v, 'f', max(0, 3-int(math.Floor(math.Log10(math.Abs(v))))), 64)
}
