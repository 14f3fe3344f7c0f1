package main

// Frozen, seeded inputs. Every flow, request body, window shape and kernel
// the benchmark feeds to the runtime is generated here, so a change to a
// product package (internal/graphs, internal/kernels, internal/bench, the
// JSON writer in internal/stf) cannot change the load. The program under
// test receives only the generated graphs and bytes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"unsafe"

	"rio"
)

// cells gives every worker a private cache line for the spin kernel's
// accumulator. Index 0 serves rio.Sequential and the centralized master
// (WorkerID -1); worker w uses index w+1.
type cells []struct {
	v uint64
	_ [cacheLine - unsafe.Sizeof(uint64(0))]byte
}

const cacheLine = 64

func newCells(workers int, seed int64) cells {
	c := make(cells, workers+2)
	for i := range c {
		c[i].v = splitmix(uint64(seed) + uint64(i))
	}
	return c
}

// spin runs n steps of a dependent multiply-add chain: CPU-bound work with
// no memory traffic whose cost is a fixed count, not a calibrated duration.
func spin(cell *uint64, n int) {
	x := *cell
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	*cell = x
}

// spinKernel executes Task.K spin steps per task.
func (c cells) spinKernel() rio.Kernel {
	return func(t *rio.Task, w rio.WorkerID) { spin(&c[int(w)+1].v, t.K) }
}

func noopKernel(*rio.Task, rio.WorkerID) {}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fold is the correctness oracle's kernel: every task folds the values it
// reads and its own identity into the values it writes, so the final data
// depends on the order in which conflicting tasks ran. Any execution that
// respects the flow's dependencies reproduces the rio.Sequential result
// exactly; a reordered or lost task does not.
type fold struct{ vals []uint64 }

func (f *fold) reset(numData int, seed int64) {
	f.vals = make([]uint64, numData)
	for i := range f.vals {
		f.vals[i] = splitmix(uint64(seed)<<20 + uint64(i))
	}
}

func (f *fold) kernel(t *rio.Task, _ rio.WorkerID) {
	var sum uint64
	for _, a := range t.Accesses {
		if a.Mode == rio.ReadOnly || a.Mode == rio.ReadWrite {
			sum += f.vals[a.Data]
		}
	}
	id := uint64(t.ID)<<32 ^ uint64(t.I)<<16 ^ uint64(t.J)
	for _, a := range t.Accesses {
		switch a.Mode {
		case rio.ReadWrite:
			f.vals[a.Data] = splitmix(f.vals[a.Data] ^ splitmix(sum^id))
		case rio.WriteOnly:
			f.vals[a.Data] = splitmix(sum ^ id)
		}
	}
}

func (f *fold) equal(g *fold) bool {
	if len(f.vals) != len(g.vals) {
		return false
	}
	for i := range f.vals {
		if f.vals[i] != g.vals[i] {
			return false
		}
	}
	return true
}

// replay submits every task of g through the closure path.
func replay(g *rio.Graph, k rio.Kernel) rio.Program {
	return func(s rio.Submitter) {
		for i := range g.Tasks {
			s.SubmitTask(&g.Tasks[i], k)
		}
	}
}

// chainFlow is n tasks over numData independent chains: task i does
// RW(i mod numData) with iters spin steps. Under a cyclic mapping whose
// worker count divides numData every chain stays on one worker.
func chainFlow(name string, n, numData, iters int) *rio.Graph {
	g := &rio.Graph{Name: name, NumData: numData}
	for i := 0; i < n; i++ {
		g.Add(0, i, 0, iters, rio.RW(rio.DataID(i%numData)))
	}
	return g
}

// luFlow is the tiled LU factorisation (no pivoting) over nt×nt tiles:
// nt(nt+1)(2nt+1)/6 tasks with real RAW and WAR edges between workers.
func luFlow(nt, iters int) *rio.Graph {
	g := &rio.Graph{Name: fmt.Sprintf("lu-%d", nt), NumData: nt * nt}
	tile := func(i, j int) rio.DataID { return rio.DataID(i*nt + j) }
	for k := 0; k < nt; k++ {
		g.Add(0, k, k, iters, rio.RW(tile(k, k)))
		for j := k + 1; j < nt; j++ {
			g.Add(1, k, j, iters, rio.Read(tile(k, k)), rio.RW(tile(k, j)))
		}
		for i := k + 1; i < nt; i++ {
			g.Add(2, i, k, iters, rio.Read(tile(k, k)), rio.RW(tile(i, k)))
		}
		for i := k + 1; i < nt; i++ {
			for j := k + 1; j < nt; j++ {
				g.Add(3, i, j, iters, rio.Read(tile(i, k)), rio.Read(tile(k, j)), rio.RW(tile(i, j)))
			}
		}
	}
	return g
}

// choleskyFlow is the tiled Cholesky factorisation over the lower triangle
// of nt×nt tiles: nt + nt(nt-1) + C(nt,3) tasks (364 for nt=12).
func choleskyFlow(nt, iters int) *rio.Graph {
	g := &rio.Graph{Name: fmt.Sprintf("cholesky-%d", nt), NumData: nt * nt}
	tile := func(i, j int) rio.DataID { return rio.DataID(i*nt + j) }
	for k := 0; k < nt; k++ {
		g.Add(0, k, k, iters, rio.RW(tile(k, k)))
		for i := k + 1; i < nt; i++ {
			g.Add(1, i, k, iters, rio.Read(tile(k, k)), rio.RW(tile(i, k)))
		}
		for i := k + 1; i < nt; i++ {
			g.Add(2, i, i, iters, rio.Read(tile(i, k)), rio.RW(tile(i, i)))
			for j := k + 1; j < i; j++ {
				g.Add(3, i, j, iters, rio.Read(tile(i, k)), rio.Read(tile(j, k)), rio.RW(tile(i, j)))
			}
		}
	}
	return g
}

// layeredFlow is one flow of the serve-cold corpus: layers of width tasks
// over two banks of width data. Layer l updates bank l%2 and reads two
// random data of the other bank, so every datum is written before it is
// read and no write is dead — the access preflight passes. Sizes are fixed;
// only the read choices (and so the content hash) depend on rng.
func layeredFlow(rng *rand.Rand, name string, layers, width int) *rio.Graph {
	g := &rio.Graph{Name: name, NumData: 2 * width}
	for l := 0; l < layers; l++ {
		own, other := (l%2)*width, ((l+1)%2)*width
		for j := 0; j < width; j++ {
			d := rio.DataID(own + j)
			switch {
			case l == 0:
				g.Add(0, l, j, 1, rio.Write(d))
			case l == 1:
				a, b := twoDistinct(rng, width)
				g.Add(0, l, j, 1, rio.Read(rio.DataID(other+a)), rio.Read(rio.DataID(other+b)), rio.Write(d))
			default:
				a, b := twoDistinct(rng, width)
				g.Add(0, l, j, 1, rio.Read(rio.DataID(other+a)), rio.Read(rio.DataID(other+b)), rio.RW(d))
			}
		}
	}
	return g
}

func twoDistinct(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// windowShapes returns the access structure of the stream-windows shapes:
// each shape is depth steps over chains chains, task t of a window belongs
// to chain t mod chains and does RW on that chain's datum. Shapes differ in
// which data their chains use, so their fingerprints differ.
func windowShapes(rng *rand.Rand, shapes, chains, numData int) [][]rio.DataID {
	out := make([][]rio.DataID, shapes)
	for s := range out {
		perm := rng.Perm(numData)
		out[s] = make([]rio.DataID, chains)
		for c := range out[s] {
			out[s][c] = rio.DataID(perm[c])
		}
	}
	return out
}

// windowFlow is one window of the given shape as a graph (the sequential
// baseline, the oracle and the layer probes use it).
func windowFlow(shape []rio.DataID, depth, numData, iters int) *rio.Graph {
	g := &rio.Graph{Name: "window", NumData: numData}
	for step := 0; step < depth; step++ {
		for _, d := range shape {
			g.Add(0, 0, step, iters, rio.RW(d))
		}
	}
	return g
}

var modeNames = map[rio.AccessMode]string{rio.ReadOnly: "R", rio.WriteOnly: "W", rio.ReadWrite: "RW"}

// encodeFlow writes g in the JSON wire format rio-serve accepts (the
// indented form `rio-graph -json` emits). A non-empty kernel adds the run
// request's kernel field to the same document, which POST /v1/run reads.
func encodeFlow(g *rio.Graph, kernel string) []byte {
	var b bytes.Buffer
	b.Grow(280 * len(g.Tasks))
	b.WriteString("{\n  \"name\": ")
	b.WriteString(strconv.Quote(g.Name))
	if kernel != "" {
		b.WriteString(",\n  \"kernel\": ")
		b.WriteString(strconv.Quote(kernel))
	}
	b.WriteString(",\n  \"num_data\": ")
	b.WriteString(strconv.Itoa(g.NumData))
	b.WriteString(",\n  \"tasks\": [")
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    {\n      \"kernel\": ")
		b.WriteString(strconv.Itoa(t.Kernel))
		for _, f := range []struct {
			key string
			v   int
		}{{"i", t.I}, {"j", t.J}, {"k", t.K}} {
			if f.v != 0 {
				b.WriteString(",\n      \"" + f.key + "\": ")
				b.WriteString(strconv.Itoa(f.v))
			}
		}
		if len(t.Accesses) > 0 {
			b.WriteString(",\n      \"accesses\": [")
			for j, a := range t.Accesses {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString("\n        {\n          \"data\": ")
				b.WriteString(strconv.Itoa(int(a.Data)))
				b.WriteString(",\n          \"mode\": \"")
				b.WriteString(modeNames[a.Mode])
				b.WriteString("\"\n        }")
			}
			b.WriteString("\n      ]")
		}
		b.WriteString("\n    }")
	}
	b.WriteString("\n  ]\n}\n")
	return b.Bytes()
}
