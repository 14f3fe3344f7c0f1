package analyze

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// This file is the instance plumbing of the analysis tools: building
// named workload graphs, parsing mapping specs, and validating a (graph,
// workers, mapping) instance. The server's ingest consumes it, and
// rio-vet and rio-serve go through ingest, so the two tools cannot drift
// apart.

// WorkloadGraph builds the task flow of one named workload. size is the
// workload's scale (tile-grid side, chain length, task count, tree leaves,
// or fork-join phases and width); seed only affects the random workload.
func WorkloadGraph(workload string, size int, seed int64) (*stf.Graph, error) {
	if size <= 0 {
		return nil, fmt.Errorf("analyze: workload size must be positive (got %d)", size)
	}
	switch workload {
	case "lu":
		return graphs.LU(size), nil
	case "cholesky":
		return graphs.Cholesky(size), nil
	case "gemm":
		return graphs.GEMM(size), nil
	case "wavefront":
		return graphs.Wavefront(size, size), nil
	case "chain":
		return graphs.Chain(size), nil
	case "independent":
		return graphs.Independent(size), nil
	case "random":
		return graphs.RandomDeps(size, 4, 1, 1, seed), nil
	case "tree":
		return graphs.TreeReduce(size), nil
	case "forkjoin":
		return graphs.ForkJoin(size, size), nil
	}
	return nil, fmt.Errorf("analyze: unknown workload %q (want lu|cholesky|gemm|wavefront|chain|independent|random|tree|forkjoin)", workload)
}

// ParseMapping builds a mapping from a spec string:
//
//	cyclic          round-robin (the in-order engine's default)
//	block           contiguous chunks over the graph's tasks
//	blockcyclic:B   blocks of B tasks, round-robin
//	single:W        every task on worker W (W >= 0)
//	owner2d         2-D block-cyclic owner-computes over (Task.I, Task.J)
//
// g may be nil for specs that do not need the graph (cyclic, single:W,
// blockcyclic:B).
func ParseMapping(mapSpec string, g *stf.Graph, p int) (stf.Mapping, error) {
	if p <= 0 {
		return nil, fmt.Errorf("analyze: mapping needs a positive worker count (got %d)", p)
	}
	name, arg, hasArg := strings.Cut(mapSpec, ":")
	switch name {
	case "cyclic", "":
		return sched.Cyclic(p), nil
	case "block":
		if g == nil {
			return nil, fmt.Errorf("analyze: mapping %q needs a task flow", mapSpec)
		}
		return sched.Block(len(g.Tasks), p), nil
	case "blockcyclic":
		bs := 4
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("analyze: bad block size in %q", mapSpec)
			}
			bs = v
		}
		return sched.BlockCyclic(p, bs), nil
	case "single":
		w := 0
		if hasArg {
			v, err := strconv.Atoi(arg)
			switch {
			case err != nil:
				return nil, fmt.Errorf("analyze: bad worker in %q", mapSpec)
			case v < 0:
				// No worker, or stf.SharedWorker (-2), which no compiled
				// program runs: rejected here, before preflight.
				return nil, fmt.Errorf("analyze: negative worker in %q", mapSpec)
			}
			w = v
		}
		return sched.Single(stf.WorkerID(w)), nil
	case "owner2d", "owner":
		if g == nil {
			return nil, fmt.Errorf("analyze: mapping %q needs a task flow", mapSpec)
		}
		return sched.OwnerComputes(g, sched.NewGrid2D(p)), nil
	}
	return nil, fmt.Errorf("analyze: unknown mapping %q (want cyclic|block|blockcyclic:B|single:W|owner2d)", mapSpec)
}

// ValidateInstance is the strict (error, not finding) validation of one
// runnable instance: a structurally valid flow, a positive worker count,
// and a mapping staying in range. Tools validate instances through this
// single entry point. It returns the mapping's owner table (nil for a nil
// mapping), which later stages read instead of calling the mapping again.
func ValidateInstance(g *stf.Graph, workers int, m stf.Mapping) ([]stf.WorkerID, error) {
	if workers < 1 {
		return nil, fmt.Errorf("analyze: worker count %d < 1", workers)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return ValidateMapping(g, workers, m)
}

// ValidateMapping is ValidateInstance for a flow its caller has validated
// already (stf.Graph.Validate, as stf.GraphReader does): the worker count
// and the mapping alone.
func ValidateMapping(g *stf.Graph, workers int, m stf.Mapping) ([]stf.WorkerID, error) {
	if workers < 1 {
		return nil, fmt.Errorf("analyze: worker count %d < 1", workers)
	}
	if m == nil {
		return nil, nil
	}
	owners := sched.Owners(g, m)
	if err := sched.ValidateOwners(owners, workers); err != nil {
		return nil, err
	}
	return owners, nil
}

// NondetDemo returns a deliberately nondeterministic program: every
// replay submits a different second task. It exists so tools and tests
// can demonstrate the determinism lint (the decentralized engine would
// fail such a program at runtime with a DivergenceError at best).
func NondetDemo(numData int) (int, stf.Program) {
	if numData < 1 {
		numData = 1
	}
	var replay atomic.Int32
	return numData, func(s stf.Submitter) {
		n := replay.Add(1)
		s.Submit(nil, stf.W(0))
		if n%2 == 1 {
			s.Submit(nil, stf.R(0))
		} else {
			s.Submit(nil, stf.RW(0))
		}
	}
}
