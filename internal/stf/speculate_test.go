package stf

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// layered is the flow of internal/server/ingest's coldBody: 30 layers of
// 50 tasks, each reading two data of the layer before and updating its
// own.
func layered() *Graph {
	const width, layers = 50, 30
	g := NewGraph("layered", 2*width)
	for l := 0; l < layers; l++ {
		own, other := (l%2)*width, ((l+1)%2)*width
		for j := 0; j < width; j++ {
			d := DataID(own + j)
			if l == 0 {
				g.Add(0, l, j, 1, W(d))
				continue
			}
			g.Add(0, l, j, 1, R(DataID(other+j)), R(DataID(other+(j+7)%width)), RW(d))
		}
	}
	return g
}

// TestSpeculationEngages: on a document of one spelling, the general
// reader reads a task only where it meets a separator no task before it
// had, and every other task is read by speculation. In the layered flow
// that is task 0, task 1 (the first with a j) and task 50 (the first with
// an i and the first with a second access), in WriteJSON's indentation,
// compact, and inside an envelope; the graph read is the one written.
func TestSpeculationEngages(t *testing.T) {
	g := layered()
	var indented, compact bytes.Buffer
	if err := g.WriteJSON(&indented); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	const want = 1500 - 3
	for _, c := range []struct {
		name     string
		doc      []byte
		envelope bool
	}{
		{"indented", indented.Bytes(), false},
		{"compact", compact.Bytes(), false},
		{"envelope", []byte(`{"graph": ` + indented.String() + `}`), true},
		{"compact envelope", []byte(`{"graph":` + compact.String() + `}`), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewScanner(c.doc)
			var r GraphReader
			err := r.Read(s)
			if c.envelope {
				s = NewScanner(c.doc)
				err = s.Object([]string{"graph"}, func(int) error { return r.Read(s) })
			}
			if err == nil {
				err = s.End()
			}
			got, gerr := r.Graph()
			if err != nil || gerr != nil {
				t.Fatalf("read: %v, %v", err, gerr)
			}
			if !reflect.DeepEqual(got, g) {
				t.Fatal("the graph read is not the graph written")
			}
			if s.speculated != want {
				t.Errorf("%d of %d tasks read by speculation, want %d", s.speculated, len(g.Tasks), want)
			}
		})
	}
}
