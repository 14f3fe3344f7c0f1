// Package graphs generates the task flows of the paper's evaluation (§5.1):
//
//	Experiment 1 — independent tasks;
//	Experiment 2 — random dependencies (128 data objects, 2 random reads
//	               and 1 random write per task);
//	Experiment 3 — the tiled matrix-multiplication dependency graph;
//	Experiment 4 — the tiled LU factorization (no pivoting) graph;
//
// plus two extension workloads (tiled Cholesky and a 2-D wavefront) used by
// the examples and ablation benchmarks. Generators produce recorded
// stf.Graphs whose tasks carry kernel selectors and tile coordinates, so
// that replaying them allocates nothing per task.
package graphs

import (
	"math/rand"

	"rio/internal/stf"
)

// Kernel selectors for recorded tasks.
const (
	// KCounter is the synthetic counter kernel (all four experiments
	// substitute it for the real task body, paper §5.1).
	KCounter = iota
	// KGemm is the C += A·B tile product of Experiment 3.
	KGemm
	// KGetrf, KTrsmRow, KTrsmCol, KGemmUpd are the LU tile kernels.
	KGetrf
	KTrsmRow
	KTrsmCol
	KGemmUpd
	// KPotrf, KTrsmChol, KSyrk, KGemmChol are the Cholesky tile kernels.
	KPotrf
	KTrsmChol
	KSyrk
	KGemmChol
	// KWave is the 2-D wavefront cell update.
	KWave
)

// Independent returns Experiment 1's task flow: n tasks with no data
// accesses (hence no dependencies).
func Independent(n int) *stf.Graph {
	g := stf.NewGraph("independent", 0)
	for i := 0; i < n; i++ {
		g.Add(KCounter, i, 0, 0)
	}
	return g
}

// RandomDeps returns Experiment 2's task flow: n tasks, each with reads
// random read dependencies and writes random write dependencies over
// numData data objects, all data distinct within a task. The paper uses
// numData=128, reads=2, writes=1. The generator is deterministic in seed.
func RandomDeps(n, numData, reads, writes int, seed int64) *stf.Graph {
	if reads+writes > numData {
		panic("graphs: reads+writes exceeds numData")
	}
	rng := rand.New(rand.NewSource(seed))
	g := stf.NewGraph("random", numData)
	picked := make([]stf.DataID, 0, reads+writes)
	for i := 0; i < n; i++ {
		picked = picked[:0]
		accesses := make([]stf.Access, 0, reads+writes)
		for len(accesses) < reads {
			d := stf.DataID(rng.Intn(numData))
			if containsData(picked, d) {
				continue
			}
			picked = append(picked, d)
			accesses = append(accesses, stf.R(d))
		}
		for len(accesses) < reads+writes {
			d := stf.DataID(rng.Intn(numData))
			if containsData(picked, d) {
				continue
			}
			picked = append(picked, d)
			accesses = append(accesses, stf.RW(d))
		}
		g.Add(KCounter, i, 0, 0, accesses...)
	}
	return g
}

func containsData(s []stf.DataID, d stf.DataID) bool {
	for _, x := range s {
		if x == d {
			return true
		}
	}
	return false
}

// GEMM returns Experiment 3's task flow: the dependency graph of a tiled
// matrix product C += A·B with nt×nt tiles. Task (i,j,k) reads A(i,k) and
// B(k,j) and updates C(i,j); the k-loop is innermost so each C tile's
// accumulation chain is contiguous in the flow, which is the natural
// submission order for an owner-computes mapping of C tiles.
//
// Data IDs: A(i,k) = i·nt+k; B(k,j) = nt²+k·nt+j; C(i,j) = 2·nt²+i·nt+j.
func GEMM(nt int) *stf.Graph {
	g := stf.NewGraph("gemm", 3*nt*nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			for k := 0; k < nt; k++ {
				g.Add(KGemm, i, j, k,
					stf.R(AData(nt, i, k)),
					stf.R(BData(nt, k, j)),
					stf.RW(CData(nt, i, j)))
			}
		}
	}
	return g
}

// AData, BData and CData return the data IDs of the GEMM operand tiles.
func AData(nt, i, k int) stf.DataID { return stf.DataID(i*nt + k) }

// BData returns the data ID of tile B(k, j) in a GEMM graph.
func BData(nt, k, j int) stf.DataID { return stf.DataID(nt*nt + k*nt + j) }

// CData returns the data ID of tile C(i, j) in a GEMM graph.
func CData(nt, i, j int) stf.DataID { return stf.DataID(2*nt*nt + i*nt + j) }

// TileData returns the data ID of tile (i, j) of the single matrix used by
// the LU, Cholesky and wavefront graphs.
func TileData(nt, i, j int) stf.DataID { return stf.DataID(i*nt + j) }

// LU returns Experiment 4's task flow: the right-looking tiled LU
// factorization without pivoting on an nt×nt tile grid. For each step k:
// Getrf on tile (k,k); row and column panel solves; then the trailing
// Schur-complement updates.
func LU(nt int) *stf.Graph {
	g := stf.NewGraph("lu", nt*nt)
	for k := 0; k < nt; k++ {
		g.Add(KGetrf, k, k, k, stf.RW(TileData(nt, k, k)))
		for j := k + 1; j < nt; j++ {
			g.Add(KTrsmRow, k, j, k, stf.R(TileData(nt, k, k)), stf.RW(TileData(nt, k, j)))
		}
		for i := k + 1; i < nt; i++ {
			g.Add(KTrsmCol, i, k, k, stf.R(TileData(nt, k, k)), stf.RW(TileData(nt, i, k)))
		}
		for i := k + 1; i < nt; i++ {
			for j := k + 1; j < nt; j++ {
				g.Add(KGemmUpd, i, j, k,
					stf.R(TileData(nt, i, k)),
					stf.R(TileData(nt, k, j)),
					stf.RW(TileData(nt, i, j)))
			}
		}
	}
	return g
}

// LURect returns the tiled LU task flow on a rectangular rows×cols tile
// grid — the shape used by the paper's model-checking case study (Table 1
// checks 2×2, 3×2 and 3×3 grids). Tile (i,j) has data ID i·cols+j.
func LURect(rows, cols int) *stf.Graph {
	g := stf.NewGraph("lu-rect", rows*cols)
	tile := func(i, j int) stf.DataID { return stf.DataID(i*cols + j) }
	steps := rows
	if cols < rows {
		steps = cols
	}
	for k := 0; k < steps; k++ {
		g.Add(KGetrf, k, k, k, stf.RW(tile(k, k)))
		for j := k + 1; j < cols; j++ {
			g.Add(KTrsmRow, k, j, k, stf.R(tile(k, k)), stf.RW(tile(k, j)))
		}
		for i := k + 1; i < rows; i++ {
			g.Add(KTrsmCol, i, k, k, stf.R(tile(k, k)), stf.RW(tile(i, k)))
		}
		for i := k + 1; i < rows; i++ {
			for j := k + 1; j < cols; j++ {
				g.Add(KGemmUpd, i, j, k,
					stf.R(tile(i, k)),
					stf.R(tile(k, j)),
					stf.RW(tile(i, j)))
			}
		}
	}
	return g
}

// LUTaskCount returns the number of tasks of LU(nt):
// Σ_{k=0}^{nt-1} 1 + 2(nt-1-k) + (nt-1-k)².
func LUTaskCount(nt int) int {
	n := 0
	for k := 0; k < nt; k++ {
		r := nt - 1 - k
		n += 1 + 2*r + r*r
	}
	return n
}

// Cholesky returns the right-looking tiled Cholesky task flow (extension
// workload) on an nt×nt tile grid, lower-triangular storage.
func Cholesky(nt int) *stf.Graph {
	g := stf.NewGraph("cholesky", nt*nt)
	for k := 0; k < nt; k++ {
		g.Add(KPotrf, k, k, k, stf.RW(TileData(nt, k, k)))
		for i := k + 1; i < nt; i++ {
			g.Add(KTrsmChol, i, k, k, stf.R(TileData(nt, k, k)), stf.RW(TileData(nt, i, k)))
		}
		for i := k + 1; i < nt; i++ {
			g.Add(KSyrk, i, i, k, stf.R(TileData(nt, i, k)), stf.RW(TileData(nt, i, i)))
			for j := k + 1; j < i; j++ {
				g.Add(KGemmChol, i, j, k,
					stf.R(TileData(nt, i, k)),
					stf.R(TileData(nt, j, k)),
					stf.RW(TileData(nt, i, j)))
			}
		}
	}
	return g
}

// Chain returns n tasks all read-writing one data object — the fully
// serialized task flow (useful as a pipelining worst case and in tests).
func Chain(n int) *stf.Graph {
	g := stf.NewGraph("chain", 1)
	for i := 0; i < n; i++ {
		g.Add(KCounter, i, 0, 0, stf.RW(stf.DataID(0)))
	}
	return g
}

// ReadersWriter returns the high-contention synchronization microbenchmark
// (the `rio-bench sync` measurement): rounds of one writer followed by readers
// parallel reads, all on a single data object. Every reader of a round
// blocks on the round's write and every write blocks on the previous
// round's reads, so the whole flow is dependency hand-offs through one
// shared cell — the worst case for the wait path, with no computation to
// hide it. With a cyclic mapping the readers land on distinct workers.
func ReadersWriter(rounds, readers int) *stf.Graph {
	g := stf.NewGraph("readers-writer", 1)
	id := 0
	for r := 0; r < rounds; r++ {
		g.Add(KCounter, id, 0, 0, stf.RW(0))
		id++
		for j := 0; j < readers; j++ {
			g.Add(KCounter, id, 0, 0, stf.R(0))
			id++
		}
	}
	return g
}

// ReduceRounds returns the reduction variant of ReadersWriter: rounds of
// one writer followed by reducers commutative reductions on one data
// object. Every reduction's terminate_red publishes on the same shared
// cell, exercising the reduction wake path under contention.
func ReduceRounds(rounds, reducers int) *stf.Graph {
	g := stf.NewGraph("reduce-rounds", 1)
	id := 0
	for r := 0; r < rounds; r++ {
		g.Add(KCounter, id, 0, 0, stf.RW(0))
		id++
		for j := 0; j < reducers; j++ {
			g.Add(KCounter, id, 0, 0, stf.Red(0))
			id++
		}
	}
	return g
}

// TreeReduce returns a binary combining tree over leaves inputs: leaf i
// writes data i; each combine node reads its two children's data and
// writes its own. Depth is ⌈log2(leaves)⌉+1 with parallelism halving per
// level — a shape that rewards depth-first (priority) scheduling.
// Data IDs: one per task, in submission order.
func TreeReduce(leaves int) *stf.Graph {
	if leaves < 1 {
		leaves = 1
	}
	// Count nodes of the full combine tree.
	total := leaves
	for w := leaves; w > 1; w = (w + 1) / 2 {
		total += (w + 1) / 2
	}
	g := stf.NewGraph("tree-reduce", total)
	var level []stf.DataID
	for i := 0; i < leaves; i++ {
		id := g.Add(KCounter, i, 0, 0, stf.W(stf.DataID(len(g.Tasks))))
		level = append(level, stf.DataID(id))
	}
	for len(level) > 1 {
		var next []stf.DataID
		for i := 0; i < len(level); i += 2 {
			out := stf.DataID(len(g.Tasks))
			if i+1 < len(level) {
				g.Add(KCounter, i/2, 0, 0, stf.R(level[i]), stf.R(level[i+1]), stf.W(out))
			} else {
				g.Add(KCounter, i/2, 0, 0, stf.R(level[i]), stf.W(out))
			}
			next = append(next, out)
		}
		level = next
	}
	return g
}

// ForkJoin returns phases bulk-synchronous phases of width independent
// tasks each, separated by a barrier task that reads every task's data of
// the phase and writes a barrier object read by the next phase — the BSP
// shape whose pipelining collapses at the barriers.
// Data IDs: width per-task objects (reused across phases) + 1 barrier.
func ForkJoin(phases, width int) *stf.Graph {
	g := stf.NewGraph("fork-join", width+1)
	barrier := stf.DataID(width)
	for ph := 0; ph < phases; ph++ {
		for i := 0; i < width; i++ {
			if ph == 0 {
				g.Add(KCounter, i, ph, 0, stf.W(stf.DataID(i)))
			} else {
				g.Add(KCounter, i, ph, 0, stf.R(barrier), stf.RW(stf.DataID(i)))
			}
		}
		accesses := make([]stf.Access, 0, width+1)
		for i := 0; i < width; i++ {
			accesses = append(accesses, stf.R(stf.DataID(i)))
		}
		accesses = append(accesses, stf.W(barrier))
		g.Add(KCounter, 0, ph, 1, accesses...)
	}
	return g
}

// Wavefront returns a 2-D wavefront task flow (extension workload) on a
// rows×cols grid: cell (i,j) reads its north and west neighbours and
// updates itself — a pipeline-heavy graph that stresses in-order execution
// when the mapping ignores the diagonal progression.
func Wavefront(rows, cols int) *stf.Graph {
	g := stf.NewGraph("wavefront", rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			accesses := make([]stf.Access, 0, 3)
			if i > 0 {
				accesses = append(accesses, stf.R(stf.DataID((i-1)*cols+j)))
			}
			if j > 0 {
				accesses = append(accesses, stf.R(stf.DataID(i*cols+j-1)))
			}
			accesses = append(accesses, stf.RW(stf.DataID(i*cols+j)))
			g.Add(KWave, i, j, 0, accesses...)
		}
	}
	return g
}
