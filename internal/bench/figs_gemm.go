package bench

import (
	"fmt"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
	"rio/internal/stf"
	"rio/internal/trace"
)

// GEMMConfig parameterizes the real-kernel matrix-multiplication figures
// (Figures 2, 3 and 4 — the paper uses MKL DGEMM on a 4096² matrix; we use
// the pure-Go tile kernel on a configurable size).
type GEMMConfig struct {
	// N is the matrix dimension.
	N int
	// TileSizes sweeps the sub-matrix dimension; each must divide N.
	TileSizes []int
	// Workers is the thread count of the parallel engines.
	Workers int
	// Warmup, Reps as in CounterConfig.
	Warmup, Reps int
}

func (c GEMMConfig) check() error {
	if c.N < 1 || len(c.TileSizes) == 0 {
		return fmt.Errorf("bench: bad GEMM config %+v", c)
	}
	for _, b := range c.TileSizes {
		if b < 1 || c.N%b != 0 {
			return fmt.Errorf("bench: tile size %d does not divide N=%d", b, c.N)
		}
	}
	if c.Workers < 2 {
		return fmt.Errorf("bench: need at least 2 workers, got %d", c.Workers)
	}
	return nil
}

// gemmOperands allocates tiled operands at tile size b, with deterministic
// contents.
func gemmOperands(n, b int) (a, bm, c *kernels.Tiled, err error) {
	if a, err = kernels.NewTiled(n, b); err != nil {
		return
	}
	if bm, err = kernels.NewTiled(n, b); err != nil {
		return
	}
	if c, err = kernels.NewTiled(n, b); err != nil {
		return
	}
	kernels.DiagDominant(a, 1)
	kernels.DiagDominant(bm, 2)
	return
}

// seqGEMM measures t(g): the whole tiled product executed on one thread
// with no runtime, at tile size b.
func seqGEMM(n, b, warmup, reps int) (time.Duration, error) {
	a, bm, c, err := gemmOperands(n, b)
	if err != nil {
		return 0, err
	}
	nt := n / b
	run := func() {
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				for k := 0; k < nt; k++ {
					kernels.GemmTile(c.Tile(i, j), a.Tile(i, k), bm.Tile(k, j), b)
				}
			}
		}
	}
	for i := 0; i < warmup; i++ {
		run()
	}
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		run()
		d := time.Since(t0)
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Fig3 reproduces Figure 3: sequential kernel efficiency e_g(g) = t / t(g)
// as a function of tile size, where t is the time of the fastest tile size
// measured. Small tiles lose cache reuse and loop amortization, so
// efficiency drops — independent of any runtime.
func Fig3(cfg GEMMConfig) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	times := make([]time.Duration, len(cfg.TileSizes))
	best := time.Duration(0)
	for i, b := range cfg.TileSizes {
		d, err := seqGEMM(cfg.N, b, cfg.Warmup, cfg.Reps)
		if err != nil {
			return nil, err
		}
		times[i] = d
		if best == 0 || d < best {
			best = d
		}
	}
	rows := make([]Row, 0, len(cfg.TileSizes))
	for i, b := range cfg.TileSizes {
		rows = append(rows, Row{
			Experiment: "fig3",
			Workload:   fmt.Sprintf("dgemm %d", cfg.N),
			Engine:     "sequential",
			Workers:    1,
			TaskSize:   uint64(b),
			Tasks:      int64((cfg.N / b) * (cfg.N / b) * (cfg.N / b)),
			Wall:       times[i],
			Eff:        trace.Efficiency{Granularity: float64(best) / float64(times[i])},
		})
	}
	return rows, nil
}

// Fig2 reproduces Figure 2: end-to-end execution time of the tiled matrix
// product under a parallel runtime, as a function of tile size. The paper
// shows StarPU; we report both the centralized baseline and RIO (with an
// owner-computes mapping) for comparison.
func Fig2(cfg GEMMConfig) ([]Row, error) {
	return gemmParallel(cfg, "fig2", false)
}

// Fig4 reproduces Figure 4: the full efficiency decomposition e_g·e_l·e_p·e_r
// of the parallel runs of Figure 2 (t = fastest sequential time overall,
// t(g) = sequential time at the measured tile size).
func Fig4(cfg GEMMConfig) ([]Row, error) {
	return gemmParallel(cfg, "fig4", true)
}

func gemmParallel(cfg GEMMConfig, experiment string, decompose bool) ([]Row, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	// Sequential references per tile size, and the overall best t.
	seq := make([]time.Duration, len(cfg.TileSizes))
	best := time.Duration(0)
	for i, b := range cfg.TileSizes {
		d, err := seqGEMM(cfg.N, b, cfg.Warmup, cfg.Reps)
		if err != nil {
			return nil, err
		}
		seq[i] = d
		if best == 0 || d < best {
			best = d
		}
	}
	var rows []Row
	for i, b := range cfg.TileSizes {
		nt := cfg.N / b
		g := graphs.GEMM(nt)
		mapping := sched.OwnerComputes(g, sched.NewGrid2D(cfg.Workers))
		for _, model := range []rio.Model{rio.Centralized, rio.InOrder} {
			a, bm, c, err := gemmOperands(cfg.N, b)
			if err != nil {
				return nil, err
			}
			kern := graphs.GEMMKernel(a, bm, c)
			e, err := rio.New(rio.Options{Model: model, Workers: cfg.Workers, Mapping: mapping})
			if err != nil {
				return nil, err
			}
			wall, st, err := Measure(e, g.NumData, stf.Replay(g, kern), cfg.Warmup, cfg.Reps)
			if err != nil {
				return nil, fmt.Errorf("%s %s b=%d: %w", experiment, model, b, err)
			}
			row := Row{
				Experiment: experiment,
				Workload:   fmt.Sprintf("dgemm %d", cfg.N),
				Engine:     model.String(),
				Workers:    cfg.Workers,
				TaskSize:   uint64(b),
				Tasks:      st.Executed(),
				Wall:       wall,
				PerTask:    perTask(wall, cfg.Workers, st.Executed()),
			}
			if decompose {
				row.Eff = trace.Decompose(best, seq[i], st)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
