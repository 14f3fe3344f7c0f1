package bench

import (
	"fmt"
	"time"

	"rio"
	"rio/internal/hpl"
	"rio/internal/stf"
)

// HPLConfig parameterizes the pivoted-LU (HPL core) experiment — the
// paper's motivating application, where the panel pivoting is inherently
// fine-grained.
type HPLConfig struct {
	// N is the matrix dimension; PanelWidths sweeps the blocking (each
	// must divide N). Narrow panels increase the fine-grained share.
	N           int
	PanelWidths []int
	// Workers, Warmup, Reps as elsewhere.
	Workers      int
	Warmup, Reps int
}

func (c HPLConfig) check() error {
	if c.N < 1 || len(c.PanelWidths) == 0 || c.Workers < 2 {
		return fmt.Errorf("bench: bad HPL config %+v", c)
	}
	for _, b := range c.PanelWidths {
		if b < 1 || c.N%b != 0 {
			return fmt.Errorf("bench: panel width %d does not divide N=%d", b, c.N)
		}
	}
	return nil
}

// HPL measures the pivoted-LU task flow under RIO, the centralized
// baseline and the sequential reference across panel widths, verifying the
// factorization residual on every run. The TaskSize column reports the
// panel width; PerTask the effective cumulative per-task cost.
func HPL(cfg HPLConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	var rows []Row
	for _, b := range cfg.PanelWidths {
		for _, model := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
			wall, tasks, err := hplRun(cfg, b, model)
			if err != nil {
				return nil, fmt.Errorf("hpl b=%d %s: %w", b, model, err)
			}
			p := cfg.Workers
			if model == rio.Sequential {
				p = 1
			}
			rows = append(rows, Row{
				Experiment: "hpl",
				Workload:   fmt.Sprintf("pivoted-lu %d", cfg.N),
				Engine:     model.String(),
				Workers:    p,
				TaskSize:   uint64(b),
				Tasks:      tasks,
				Wall:       wall,
				PerTask:    perTask(wall, p, tasks),
			})
		}
	}
	return rows, nil
}

func hplRun(cfg HPLConfig, b int, model rio.Model) (time.Duration, int64, error) {
	f, err := hpl.NewFlow(cfg.N, b)
	if err != nil {
		return 0, 0, err
	}
	var kerr error
	kern := f.Kernel(func(e error) { kerr = e })
	workers := cfg.Workers
	if model == rio.Sequential {
		workers = 1
	}
	e, err := rio.New(rio.Options{Model: model, Workers: workers, Mapping: f.ColumnMapping(workers)})
	if err != nil {
		return 0, 0, err
	}

	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(0)
	for r := 0; r < cfg.Warmup+reps; r++ {
		f.A.FillRandom(uint64(r) + 1)
		orig := f.A.Clone()
		t0 := time.Now()
		if err := e.Run(f.Graph.NumData, stf.Replay(f.Graph, kern)); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		if kerr != nil {
			return 0, 0, kerr
		}
		orig.ApplyPivots(f.Ipiv)
		if res := hpl.Residual(f.A.Reconstruct(), orig); res > 1e-10 {
			return 0, 0, fmt.Errorf("residual %g", res)
		}
		if r >= cfg.Warmup && (best == 0 || d < best) {
			best = d
		}
	}
	return best, int64(len(f.Graph.Tasks)), nil
}
