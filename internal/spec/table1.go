package spec

import (
	"fmt"
	"time"

	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// Table1Row is one line of the paper's Table 1: model-checking statistics
// for the STF and Run-In-Order models on a tiled-LU task flow.
type Table1Row struct {
	// Rows and Cols give the LU tile-grid size (2×2, 3×2, 3×3 in the
	// paper).
	Rows, Cols int
	// Tasks is the number of tasks of the instance.
	Tasks int
	// STF and RIO hold the checking results of each model.
	STF, RIO *Result
	// STFTime and RIOTime are the wall-clock checking times.
	STFTime, RIOTime time.Duration
}

// Size renders the instance as in the paper ("3x2").
func (r Table1Row) Size() string { return fmt.Sprintf("%dx%d", r.Rows, r.Cols) }

// Table1 reproduces the paper's Table 1: for each LU tile-grid size, check
// the STF model and the Run-In-Order model (with workers workers and a
// cyclic mapping, matching the paper's two-worker setup) and report state
// counts and times. samples and seed are CheckPair's.
func Table1(sizes [][2]int, workers, samples int, seed int64) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(sizes))
	for _, sz := range sizes {
		g := graphs.LURect(sz[0], sz[1])
		row, err := CheckPair(g, workers, sched.Cyclic(workers), samples, seed)
		if err != nil {
			return nil, fmt.Errorf("spec: %dx%d: %w", sz[0], sz[1], err)
		}
		row.Rows, row.Cols = sz[0], sz[1]
		rows = append(rows, row)
	}
	return rows, nil
}

// CheckPair checks both the STF and the Run-In-Order models of one task
// flow under one mapping and times each — Table 1's procedure generalized
// to arbitrary workloads (the paper only model-checks LU; nothing in the
// method is LU-specific). samples = 0 explores every state; samples > 0
// walks that many random executions of each model from seed instead, for
// instances beyond exhaustive reach.
func CheckPair(g *stf.Graph, workers int, mapping stf.Mapping, samples int, seed int64) (Table1Row, error) {
	m, err := NewModel(g, workers, mapping)
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{Tasks: len(g.Tasks)}
	t0 := time.Now()
	if samples > 0 {
		row.STF = m.SampleSTF(samples, seed)
	} else {
		row.STF = m.CheckSTF()
	}
	row.STFTime = time.Since(t0)
	t0 = time.Now()
	if samples > 0 {
		row.RIO = m.SampleRIO(samples, seed, RIOOptions{})
	} else {
		row.RIO = m.CheckRIO(RIOOptions{})
	}
	row.RIOTime = time.Since(t0)
	return row, nil
}
