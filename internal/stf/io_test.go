package stf_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/stf"
)

func TestJSONRoundTrip(t *testing.T) {
	for _, g := range []*stf.Graph{
		graphs.LU(4),
		graphs.GEMM(3),
		graphs.RandomDeps(50, 16, 2, 1, 3),
		graphs.Independent(10),
	} {
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: write: %v", g.Name, err)
		}
		got, err := stf.ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", g.Name, err)
		}
		if got.Name != g.Name || got.NumData != g.NumData || len(got.Tasks) != len(g.Tasks) {
			t.Fatalf("%s: header mismatch", g.Name)
		}
		for i := range g.Tasks {
			a, b := &g.Tasks[i], &got.Tasks[i]
			if a.Kernel != b.Kernel || a.I != b.I || a.J != b.J || a.K != b.K || len(a.Accesses) != len(b.Accesses) {
				t.Fatalf("%s: task %d mismatch: %+v vs %+v", g.Name, i, a, b)
			}
			for j := range a.Accesses {
				if a.Accesses[j] != b.Accesses[j] {
					t.Fatalf("%s: task %d access %d mismatch", g.Name, i, j)
				}
			}
		}
	}
}

func TestJSONRoundTripWithReductions(t *testing.T) {
	g := stf.NewGraph("red", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.Red(0))
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := stf.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tasks[1].Accesses[0].Mode != stf.Reduction {
		t.Errorf("reduction mode lost: %v", got.Tasks[1].Accesses[0].Mode)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := stf.ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := stf.ReadJSON(strings.NewReader(`{"name":"x","num_data":1,"tasks":[{"accesses":[{"data":0,"mode":"XX"}]}]}`)); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := stf.ReadJSON(strings.NewReader(`{"name":"x","num_data":1,"tasks":[{"accesses":[{"data":9,"mode":"R"}]}]}`)); err == nil {
		t.Error("out-of-range data accepted (validation skipped)")
	}
	// The document is the whole input, as it is for a submission: what
	// rio-vet -graph reads clean, rio-serve accepts byte for byte.
	if _, err := stf.ReadJSON(strings.NewReader(`{"name":"x","num_data":0,"tasks":[]} garbage`)); err == nil {
		t.Error("bytes after the document accepted")
	}
	if _, err := stf.ReadJSON(strings.NewReader(`{"name":"x","num_data":0,"tasks":[],"tasks":[]}`)); err == nil {
		t.Error("repeated key accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g := stf.NewGraph("dot", 1)
	g.Add(1, 0, 0, 0, stf.W(0))
	g.Add(2, 0, 0, 0, stf.R(0))
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "t0", "t1", "t0 -> t1", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestSummarize(t *testing.T) {
	g := graphs.Wavefront(3, 3)
	s := g.Summarize()
	if s.Tasks != 9 || s.NumData != 9 {
		t.Errorf("summary counts: %+v", s)
	}
	if s.Depth != 5 {
		t.Errorf("depth = %d, want 5", s.Depth)
	}
	if s.MaxWidth != 3 {
		t.Errorf("max width = %d, want 3 (longest anti-diagonal)", s.MaxWidth)
	}
	// Edges: each cell depends on north and west where they exist:
	// 2*rows*cols - rows - cols = 18-6 = 12.
	if s.Edges != 12 {
		t.Errorf("edges = %d, want 12", s.Edges)
	}
	if s.AvgDeps <= 0 {
		t.Errorf("avg deps = %v", s.AvgDeps)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := stf.NewGraph("empty", 0).Summarize()
	if s.Tasks != 0 || s.AvgDeps != 0 || s.Depth != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

// Property: JSON round-trip preserves the dependency structure of random
// graphs (including ones with reductions).
func TestPropertyJSONPreservesDependencies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraphWithReductions(rng, 30, 6)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := stf.ReadJSON(&buf)
		if err != nil {
			return false
		}
		a, b := g.Dependencies(), got.Dependencies()
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
