package stf_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rio/internal/enginetest"
	"rio/internal/sched"
	"rio/internal/stf"
)

// reference lowers g for worker w the way the 12-byte stream form did, one
// micro-op per protocol operation: tasks with a negative owner are left out,
// foreign tasks not relevant to w too, and accesses to elided data emit
// nothing.
func reference(g *stf.Graph, owners []stf.WorkerID, relevant [][]bool, elided []bool, w int) []stf.Instr {
	pick := func(m stf.AccessMode, write, red, read stf.OpCode) stf.OpCode {
		switch {
		case m.Writes():
			return write
		case m.Commutes():
			return red
		}
		return read
	}
	var out []stf.Instr
	for i := range g.Tasks {
		t, id := &g.Tasks[i], int32(i)
		if owners[i] < 0 || (relevant != nil && !relevant[w][i]) {
			continue
		}
		live := func(yield func(stf.Access) bool) {
			for _, a := range t.Accesses {
				if (elided == nil || !elided[a.Data]) && !yield(a) {
					return
				}
			}
		}
		if owners[i] != stf.WorkerID(w) {
			for a := range live {
				out = append(out, stf.Instr{Op: pick(a.Mode, stf.OpDeclareWrite, stf.OpDeclareRed, stf.OpDeclareRead), Data: a.Data, Task: id})
			}
			continue
		}
		for a := range live {
			out = append(out, stf.Instr{Op: pick(a.Mode, stf.OpGetWrite, stf.OpGetRed, stf.OpGetRead), Data: a.Data, Task: id})
		}
		out = append(out, stf.Instr{Op: stf.OpExec, Task: id})
		for a := range live {
			out = append(out, stf.Instr{Op: pick(a.Mode, stf.OpTermWrite, stf.OpTermRed, stf.OpTermRead), Data: a.Data, Task: id})
		}
	}
	return out
}

// checkEncoding holds cp's streams to the format: each decodes to the
// micro-ops want gives for its worker and is exactly what Encode writes
// for them, and Ops counts micro-ops, not words.
func checkEncoding(t *testing.T, what string, cp *stf.CompiledProgram, want func(w int) []stf.Instr) {
	t.Helper()
	ops := 0
	for w, s := range cp.Streams {
		got := slices.Collect(stf.Decode(s))
		if exp := want(w); !slices.Equal(got, exp) {
			t.Fatalf("%s: worker %d decodes to\n%v\nwant\n%v", what, w, got, exp)
		}
		if enc := stf.Encode(got); !slices.Equal(enc, s) {
			t.Fatalf("%s: worker %d stream is not Encode's encoding of its micro-ops:\n%x\nwant\n%x", what, w, s, enc)
		}
		if stf.StreamOps(s) != len(got) {
			t.Fatalf("%s: worker %d StreamOps = %d, decodes to %d micro-ops", what, w, stf.StreamOps(s), len(got))
		}
		ops += len(got)
	}
	if cp.Ops() != ops {
		t.Fatalf("%s: Ops() = %d, streams decode to %d micro-ops", what, cp.Ops(), ops)
	}
}

// TestStreamEncodingProperty: over random flows and mappings, every program
// the compilers and Canonical produce stores the micro-ops
// of the per-operation lowering, in Encode's encoding.
func TestStreamEncodingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 300; trial++ {
		var g *stf.Graph
		if trial%2 == 0 {
			g = enginetest.RandomGraph(rng, 40, 8)
		} else {
			g = enginetest.RandomGraphWithReductions(rng, 40, 8)
		}
		workers, block := 1+rng.Intn(4), 1+rng.Intn(3)
		m := func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(int(id) / block % workers) }
		owners := make([]stf.WorkerID, len(g.Tasks))
		for i := range owners {
			owners[i] = m(stf.TaskID(i))
		}
		var rel [][]bool
		if trial%3 == 0 {
			rel = sched.Relevant(g, m, workers)
		}
		for _, lowering := range []struct {
			name    string
			compile func(*stf.Graph, stf.Mapping, int, [][]bool) (*stf.CompiledProgram, error)
		}{{"elided", stf.Compile}, {"canonical", stf.CompileCanonical}} {
			what := fmt.Sprintf("trial %d, %s, pruned %v", trial, lowering.name, rel != nil)
			cp, err := lowering.compile(g, m, workers, rel)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkEncoding(t, what, cp, func(w int) []stf.Instr { return reference(g, owners, rel, cp.Elided, w) })
		}
	}
}

// TestStreamEncodingWindowShapes: a stream window's shape (its tasks' access
// structure, compiled once and cached) is stored like any flow: RW chains,
// as the stream-windows workload submits, and random accesses.
func TestStreamEncodingWindowShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		numData, chains, depth := 64, 1+rng.Intn(8), 1+rng.Intn(32)
		win := stf.NewWindow(numData)
		perm := rng.Perm(numData)
		for step := 0; step < depth; step++ {
			for c := 0; c < chains; c++ {
				acc := []stf.Access{stf.RW(stf.DataID(perm[c]))}
				if trial%2 == 1 {
					acc = append(acc, stf.R(stf.DataID(perm[chains+rng.Intn(numData-chains)])))
				}
				if _, err := win.Add(nil, 0, 0, step, 0, acc); err != nil {
					t.Fatal(err)
				}
			}
		}
		g := win.CloneGraph("shape")
		workers := 1 + rng.Intn(4)
		m := func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(int(id) % workers) }
		owners := make([]stf.WorkerID, len(g.Tasks))
		for i := range owners {
			owners[i] = m(stf.TaskID(i))
		}
		for _, elide := range []bool{true, false} {
			compile := stf.CompileCanonical
			if elide {
				compile = stf.Compile
			}
			cp, err := compile(g, m, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkEncoding(t, fmt.Sprintf("window %d, elide %v", trial, elide), cp, func(w int) []stf.Instr {
				return reference(g, owners, nil, cp.Elided, w)
			})
		}
	}
}

// TestEncodeDecodeInverse: Decode undoes Encode on any micro-op
// sequence a mutator could produce — any order, unknown opcodes, tasks and
// data up to MaxIndex — bar the datum of an exec, which is not stored.
func TestEncodeDecodeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		ins := make([]stf.Instr, rng.Intn(40))
		for i := range ins {
			in := stf.Instr{Op: stf.OpCode(rng.Intn(16)), Data: stf.DataID(rng.Intn(stf.MaxIndex + 1)), Task: int32(rng.Intn(4))}
			if trial%2 == 1 {
				in.Task = int32(rng.Intn(stf.MaxIndex + 1))
			}
			switch in.Op {
			case stf.OpTask:
				in.Op = stf.OpExec // never in a decoded view
				fallthrough
			case stf.OpExec:
				in.Data = 0
			}
			ins[i] = in
		}
		if got := slices.Collect(stf.Decode(stf.Encode(ins))); !slices.Equal(got, ins) {
			t.Fatalf("trial %d: decoded\n%v\nwant\n%v", trial, got, ins)
		}
	}
}

// TestStreamFootprint pins the stored size: a word is four bytes, and a
// stream of a 1 500-task layered flow (the serve-cold shape) holds one word
// per micro-op plus one per task group that does not open with its exec,
// in storage of exactly that size.
func TestStreamFootprint(t *testing.T) {
	if n := unsafe.Sizeof(stf.Word(0)); n != 4 {
		t.Fatalf("a word takes %d bytes, want 4", n)
	}
	const layers, width = 30, 50
	rng := rand.New(rand.NewSource(1))
	g := stf.NewGraph("layered", 2*width)
	for l := 0; l < layers; l++ {
		own, other := (l%2)*width, ((l+1)%2)*width
		for j := 0; j < width; j++ {
			acc := []stf.Access{stf.W(stf.DataID(own + j))}
			if l > 0 {
				a := rng.Intn(width)
				b := (a + 1 + rng.Intn(width-1)) % width
				acc = []stf.Access{stf.R(stf.DataID(other + a)), stf.R(stf.DataID(other + b)), stf.RW(stf.DataID(own + j))}
			}
			g.Add(0, l, j, 0, acc...)
		}
	}
	for _, workers := range []int{2, 4} {
		m := func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(int(id) % workers) }
		cp, err := stf.Compile(g, m, workers, sched.Relevant(g, m, workers))
		if err != nil {
			t.Fatal(err)
		}
		for w, s := range cp.Streams {
			ops, groups, prev := 0, 0, int32(-1)
			for in := range stf.Decode(s) {
				if in.Task != prev && in.Op != stf.OpExec {
					groups++
				}
				ops, prev = ops+1, in.Task
			}
			if limit := 4 * (ops + groups); stf.StreamBytes(s) > limit || int(unsafe.Sizeof(s[0]))*cap(s) > limit {
				t.Errorf("%d workers, worker %d: %d micro-ops in %d groups take %d bytes (capacity %d words), want at most %d",
					workers, w, ops, groups, stf.StreamBytes(s), cap(s), limit)
			}
		}
	}
}

// A word's operand holds 28 bits: Compile turns away a flow over 2^28 data
// objects, and says why (the task bound is checked in
// TestIndexableBounds, without a 2^28-task graph).
func TestCompileRejectsUnindexableFlows(t *testing.T) {
	_, err := stf.Compile(stf.NewGraph("wide", 1<<28), cyclic(2), 2, nil)
	if err == nil || !strings.Contains(err.Error(), "2^28") {
		t.Errorf("Compile over 2^28 data objects: err = %v, want the 2^28 limit named", err)
	}
}
