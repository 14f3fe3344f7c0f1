// Sparse multifrontal factorization over an elimination tree with
// proportional mapping — the paper's cited static-mapping technique for
// sparse linear algebra (George/Liu/Ng; Pothen/Sun, §3.2).
//
// A random elimination tree models the supernodes of a sparse Cholesky
// factorization; each node's task reads its children's frontal
// contributions and updates its own. Three static mappings are compared
// under the decentralized in-order engine:
//
//   - proportional: workers own disjoint subtrees sized by work — all
//     synchronization concentrates on the (inherently sequential) top of
//     the tree;
//   - automap: the list-scheduling mapping computed from the task weights
//     (the "automatic static mapping" the paper cites);
//   - cyclic: tree-oblivious round-robin.
//
// All three produce the same results (sequential consistency does not
// depend on the mapping); the example prints wall time and the e_p/e_r
// decomposition so the scheduling quality is visible.
//
// Run with: go run ./examples/sparse [-nodes 400] [-workers 4] [-work 2000]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/sim"
	"rio/internal/stf"
)

func main() {
	nodes := flag.Int("nodes", 400, "elimination-tree nodes (leaves for the balanced shape)")
	shape := flag.String("tree", "balanced", "elimination-tree shape: balanced | random | chain — proportional mapping excels on balanced trees, degrades on skewed ones")
	workers := flag.Int("workers", 4, "worker count")
	work := flag.Int("work", 2000, "busy-work iterations per unit of node weight")
	flag.Parse()

	var tree *graphs.ETree
	switch *shape {
	case "balanced":
		tree = graphs.BalancedETree(*nodes / 2)
	case "random":
		tree = graphs.RandomETree(*nodes, 4, 42)
	case "chain":
		tree = graphs.ChainETree(*nodes)
	default:
		log.Fatalf("unknown tree shape %q", *shape)
	}
	g := graphs.SparseCholesky(tree)
	fmt.Printf("%s elimination tree: %d nodes, task flow depth %d\n", *shape, tree.Nodes(), depth(g))

	mappings := []struct {
		name string
		m    rio.Mapping
	}{
		{"proportional", sched.Proportional(tree, *workers)},
		{"automap", rio.AutoMapping(g, *workers, rio.WeightCost(time.Microsecond)).Mapping},
		{"cyclic", rio.CyclicMapping(*workers)},
	}

	var ref []float64
	for _, v := range mappings {
		vals := make([]float64, tree.Nodes())
		kern := func(t *rio.Task, _ rio.WorkerID) {
			// Fold the children's contributions, then busy-work
			// proportional to the node weight (t.K).
			acc := 1.0
			for _, a := range t.Accesses[:len(t.Accesses)-1] {
				acc += 0.5 * vals[a.Data]
			}
			for i := 0; i < *work*t.K; i++ {
				acc += 1e-12
			}
			vals[t.I] = acc
		}
		rt, err := rio.New(rio.Options{Model: rio.InOrder, Workers: *workers, Mapping: v.m})
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := rt.Run(g.NumData, rio.Replay(g, kern)); err != nil {
			log.Fatal(err)
		}
		wall := time.Since(t0)

		if ref == nil {
			ref = append([]float64(nil), vals...)
		} else {
			for i := range vals {
				if vals[i] != ref[i] {
					log.Fatalf("%s: node %d diverged", v.name, i)
				}
			}
		}
		st := rt.Stats()
		eff := rio.Decompose(st.Wall, st.Wall, st)
		fmt.Printf("%-14s wall=%-12v e_p=%.3f e_r=%.3f\n",
			v.name, wall.Round(time.Microsecond), eff.Pipelining, eff.Runtime)
	}
	fmt.Println("identical results under all mappings; only the schedule quality differs.")

	// On a host with few hardware threads the differences above are
	// muted; the discrete-event simulator shows the schedule quality on
	// an ideal 8-worker machine (per-task durations ∝ node weight).
	const simWorkers = 8
	w := sim.Workload{Graph: g, Duration: func(id rio.TaskID) time.Duration {
		return time.Duration(g.Tasks[id].K) * 10 * time.Microsecond
	}}
	critical, work8 := stf.CriticalPath(g, w.Duration)
	fmt.Printf("\nsimulated on %d ideal workers (critical path %v, work %v):\n",
		simWorkers, critical.Round(time.Microsecond), work8.Round(time.Microsecond))
	simMappings := []struct {
		name string
		m    rio.Mapping
	}{
		{"proportional", sched.Proportional(tree, simWorkers)},
		{"automap", rio.AutoMapping(g, simWorkers, rio.WeightCost(10*time.Microsecond)).Mapping},
		{"cyclic", rio.CyclicMapping(simWorkers)},
	}
	for _, v := range simMappings {
		r, err := sim.SimulateRIO(w, simWorkers, v.m, sim.Costs{DeclareCost: 15 * time.Nanosecond})
		if err != nil {
			log.Fatal(err)
		}
		eff := r.Efficiency()
		fmt.Printf("%-14s makespan=%-12v e_p=%.3f (bound %.0f%% of optimum)\n",
			v.name, r.Makespan.Round(time.Microsecond), eff.Pipelining,
			100*float64(maxDur(critical, work8/simWorkers))/float64(r.Makespan))
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func depth(g *rio.Graph) int {
	_, d := g.Levels()
	return d
}
