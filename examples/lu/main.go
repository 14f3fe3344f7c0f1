// Tiled LU factorization without pivoting — the paper's Experiment 4 graph
// and the case study of its formal specification — executed with real tile
// kernels under the decentralized in-order model, and verified by
// reconstructing L·U and comparing against the input matrix.
//
// The static mapping is owner-computes over a 2-D block-cyclic tile
// distribution; the submission order is the natural right-looking order, so
// panel tasks of step k+1 follow the trailing updates of step k.
//
// Run with: go run ./examples/lu [-n 256] [-b 32] [-workers 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"rio"
	"rio/internal/kernels" // the application's computational tile kernels
)

func main() {
	n := flag.Int("n", 256, "matrix dimension")
	b := flag.Int("b", 32, "tile dimension (must divide n)")
	workers := flag.Int("workers", 4, "worker count")
	flag.Parse()
	nt := *n / *b

	grid := rio.NewGrid2D(*workers)

	for _, model := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		m, err := kernels.NewTiled(*n, *b)
		if err != nil {
			log.Fatal(err)
		}
		kernels.DiagDominant(m, 7)
		orig := m.ToDense()

		// The in-order engine needs a TaskID → WorkerID closure. Rather
		// than deriving tile coordinates from task IDs (awkward for LU's
		// irregular flow), we precompute the owner table by unrolling the
		// loop nest once — the standard "parametric allocation" pattern.
		var owners []rio.WorkerID
		forEachTask(nt, func(kind string, i, j, k int) {
			owners = append(owners, grid.Owner(i, j))
		})
		mapping := func(id rio.TaskID) rio.WorkerID { return owners[id] }

		tile := func(i, j int) rio.DataID { return rio.DataID(i*nt + j) }
		bb := *b
		program := func(s rio.Submitter) {
			forEachTask(nt, func(kind string, i, j, k int) {
				switch kind {
				case "getrf":
					s.Submit(func() {
						if err := kernels.Getrf(m.Tile(k, k), bb); err != nil {
							panic(err)
						}
					}, rio.RW(tile(k, k)))
				case "trsm-row":
					s.Submit(func() { kernels.TrsmLowerLeft(m.Tile(k, k), m.Tile(k, j), bb) },
						rio.Read(tile(k, k)), rio.RW(tile(k, j)))
				case "trsm-col":
					s.Submit(func() { kernels.TrsmUpperRight(m.Tile(k, k), m.Tile(i, k), bb) },
						rio.Read(tile(k, k)), rio.RW(tile(i, k)))
				case "gemm":
					s.Submit(func() { kernels.GemmSubTile(m.Tile(i, j), m.Tile(i, k), m.Tile(k, j), bb) },
						rio.Read(tile(i, k)), rio.Read(tile(k, j)), rio.RW(tile(i, j)))
				}
			})
		}

		rt, err := rio.New(rio.Options{Model: model, Workers: *workers, Mapping: mapping})
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := rt.Run(nt*nt, program); err != nil {
			log.Fatal(err)
		}
		wall := time.Since(t0)

		diff := kernels.MaxAbsDiff(kernels.LUReconstruct(m), orig)
		st := rt.Stats()
		fmt.Printf("%-16s n=%d b=%d tasks=%d wall=%-12v ‖LU−A‖max=%.2e\n",
			rt.Name(), *n, *b, st.Executed(), wall.Round(time.Microsecond), diff)
		if diff > 1e-6 {
			log.Fatalf("%s: factorization residual too large", rt.Name())
		}
	}
}

// forEachTask enumerates the right-looking LU task flow in submission
// order, calling fn once per task with the written tile's coordinates.
func forEachTask(nt int, fn func(kind string, i, j, k int)) {
	for k := 0; k < nt; k++ {
		fn("getrf", k, k, k)
		for j := k + 1; j < nt; j++ {
			fn("trsm-row", k, j, k)
		}
		for i := k + 1; i < nt; i++ {
			fn("trsm-col", i, k, k)
		}
		for i := k + 1; i < nt; i++ {
			for j := k + 1; j < nt; j++ {
				fn("gemm", i, j, k)
			}
		}
	}
}
