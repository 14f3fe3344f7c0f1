// Tiled matrix multiplication under the three execution models.
//
// The task flow is the paper's Experiment 3 graph: C(i,j) += A(i,k)·B(k,j)
// with the k-loop innermost. The RIO engine gets the classic static mapping
// for dense linear algebra — 2-D block-cyclic ownership of the C tiles
// ("owner computes") — which is exactly the kind of application knowledge
// the paper's execution model asks the programmer to provide (§3.2).
//
// The result is verified against a single-shot dense multiplication.
//
// Run with: go run ./examples/gemm [-n 256] [-b 32] [-workers 4]
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

	a, bm, err := operands(*n, *b)
	if err != nil {
		log.Fatal(err)
	}
	nt := *n / *b

	// Reference: dense product computed without the runtime.
	want := make([]float64, *n**n)
	kernels.MatMulDense(want, a.ToDense(), bm.ToDense(), *n)

	// Owner-computes mapping: C(i,j) is owned by the 2-D block-cyclic
	// owner of tile (i,j) on the squarest worker grid. Task (i,j,k) has
	// ID ((i·nt)+j)·nt + k, so ownership is derivable from the ID alone —
	// a pure TaskID → WorkerID closure, as the paper specifies.
	grid := rio.NewGrid2D(*workers)
	mapping := func(id rio.TaskID) rio.WorkerID {
		ij := int(id) / nt
		return grid.Owner(ij/nt, ij%nt)
	}

	for _, model := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		c, err := kernels.NewTiled(*n, *b)
		if err != nil {
			log.Fatal(err)
		}
		program := func(s rio.Submitter) {
			for i := 0; i < nt; i++ {
				for j := 0; j < nt; j++ {
					for k := 0; k < nt; k++ {
						i, j, k := i, j, k
						s.Submit(func() {
							kernels.GemmTile(c.Tile(i, j), a.Tile(i, k), bm.Tile(k, j), *b)
						},
							rio.Read(aID(nt, i, k)),
							rio.Read(bID(nt, k, j)),
							rio.RW(cID(nt, i, j)))
					}
				}
			}
		}
		rt, err := rio.New(rio.Options{Model: model, Workers: *workers, Mapping: mapping})
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := rt.Run(3*nt*nt, program); err != nil {
			log.Fatal(err)
		}
		wall := time.Since(t0)
		diff := kernels.MaxAbsDiff(c.ToDense(), want)
		st := rt.Stats()
		fmt.Printf("%-16s n=%d b=%d tasks=%d wall=%-12v max|Δ|=%.2e",
			rt.Name(), *n, *b, st.Executed(), wall.Round(time.Microsecond), diff)
		if model == rio.InOrder {
			fmt.Printf(" declared=%d", st.Declared())
		}
		fmt.Println()
		if diff > 1e-9 {
			log.Fatalf("%s: result mismatch", rt.Name())
		}
	}
}

func operands(n, b int) (*kernels.Tiled, *kernels.Tiled, error) {
	a, err := kernels.NewTiled(n, b)
	if err != nil {
		return nil, nil, err
	}
	bm, err := kernels.NewTiled(n, b)
	if err != nil {
		return nil, nil, err
	}
	kernels.DiagDominant(a, 1)
	kernels.DiagDominant(bm, 2)
	return a, bm, nil
}

func aID(nt, i, k int) rio.DataID { return rio.DataID(i*nt + k) }
func bID(nt, k, j int) rio.DataID { return rio.DataID(nt*nt + k*nt + j) }
func cID(nt, i, j int) rio.DataID { return rio.DataID(2*nt*nt + i*nt + j) }
