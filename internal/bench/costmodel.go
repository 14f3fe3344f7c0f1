package bench

import (
	"fmt"
	"runtime"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/kernels"
	"rio/internal/sched"
)

// Cost-model validation (§3.3, equations (1) and (2)):
//
//	t_p,centralized   = max(n·t_r,  n·t_t(g)/w)      (1)
//	t_p,decentralized = n·t_r + n·t_t(g)/w           (2)
//
// The harness fits the per-task runtime cost t_r of each engine from a run
// with near-zero task bodies, predicts the execution time across a
// granularity sweep with the engine's cost model, and reports predicted vs
// measured. It also reports the model's predicted centralized crossover
// granularity — the task size above which the workers, not the master,
// bound the execution (t_t(g) > w·t_r).

// CostModelRow is one line of the cost-model report.
type CostModelRow struct {
	// Engine names the execution model.
	Engine string
	// TaskSize is the counter-kernel loop count.
	TaskSize uint64
	// Measured is the measured wall time, Predicted the cost model's.
	Measured, Predicted time.Duration
	// RelErr is |Predicted-Measured| / Measured.
	RelErr float64
}

// CostModelReport is the full validation result.
type CostModelReport struct {
	// TrCentralized and TrRIO are the fitted per-task runtime costs.
	TrCentralized, TrRIO time.Duration
	// NsPerOp is the counter-kernel calibration.
	NsPerOp float64
	// CrossoverOps is the predicted centralized crossover task size in
	// counter-loop iterations: w · t_r / nsPerOp.
	CrossoverOps uint64
	// Rows holds predicted-vs-measured lines for both engines.
	Rows []CostModelRow
}

// CostModel fits and validates the two cost models on independent counter
// tasks.
//
// The models' n·t_t/w term assumes w truly parallel execution units; when
// goroutine workers outnumber hardware threads (GOMAXPROCS), the effective
// compute parallelism is capped by the hardware, so the prediction uses
// min(w, GOMAXPROCS) — the paper's testbed always had w ≤ cores.
func CostModel(cfg CounterConfig) (*CostModelReport, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	calib := kernels.Calibrate(20 * time.Millisecond)
	g := graphs.Independent(cfg.Tasks)
	n := float64(cfg.Tasks)
	// Executing workers: RIO uses all p; the centralized engine dedicates
	// one thread to the master.
	hw := runtime.GOMAXPROCS(0)
	wRIO := float64(min(cfg.Workers, hw))
	wCent := float64(min(cfg.Workers-1, hw))

	fit := func(model rio.Model) (time.Duration, error) {
		wall, _, err := counterRun(model, cfg, g, sched.Cyclic(cfg.Workers), 1)
		if err != nil {
			return 0, err
		}
		return time.Duration(float64(wall) / n), nil
	}
	rep := &CostModelReport{NsPerOp: calib.NsPerOp}
	var err error
	if rep.TrCentralized, err = fit(rio.Centralized); err != nil {
		return nil, fmt.Errorf("costmodel fit centralized: %w", err)
	}
	if rep.TrRIO, err = fit(rio.InOrder); err != nil {
		return nil, fmt.Errorf("costmodel fit rio: %w", err)
	}
	rep.CrossoverOps = uint64(wCent * float64(rep.TrCentralized.Nanoseconds()) / calib.NsPerOp)

	predict := func(model rio.Model, size uint64) time.Duration {
		tt := calib.NsPerOp * float64(size) // ns per task body
		switch model {
		case rio.Centralized:
			mgmt := n * float64(rep.TrCentralized.Nanoseconds())
			comp := n * tt / wCent
			return time.Duration(max(mgmt, comp))
		default:
			return time.Duration(n*float64(rep.TrRIO.Nanoseconds()) + n*tt/wRIO)
		}
	}
	for _, model := range []rio.Model{rio.Centralized, rio.InOrder} {
		for _, size := range cfg.TaskSizes {
			wall, _, err := counterRun(model, cfg, g, sched.Cyclic(cfg.Workers), size)
			if err != nil {
				return nil, err
			}
			pred := predict(model, size)
			rel := 0.0
			if wall > 0 {
				rel = abs(float64(pred-wall)) / float64(wall)
			}
			rep.Rows = append(rep.Rows, CostModelRow{
				Engine:    model.String(),
				TaskSize:  size,
				Measured:  wall,
				Predicted: pred,
				RelErr:    rel,
			})
		}
	}
	return rep, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
