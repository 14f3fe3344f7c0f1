package stf

// Task-flow import/export: a JSON form for persisting workloads and a
// Graphviz DOT form for visualizing the derived dependency DAG. Both are
// written by rio-vet -emit.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// GraphJSON is the serialized form of a Graph, as WriteJSON encodes it.
// Reading goes through the Scanner (scan.go), which knows the same keys.
type GraphJSON struct {
	Name    string     `json:"name"`
	NumData int        `json:"num_data"`
	Tasks   []TaskJSON `json:"tasks"`
}

// TaskJSON is the serialized form of a Task.
type TaskJSON struct {
	Kernel   int          `json:"kernel"`
	I        int          `json:"i,omitempty"`
	J        int          `json:"j,omitempty"`
	K        int          `json:"k,omitempty"`
	Accesses []AccessJSON `json:"accesses,omitempty"`
}

// AccessJSON is the serialized form of an Access.
type AccessJSON struct {
	Data       DataID `json:"data"`
	Mode       string `json:"mode"`
	Idempotent bool   `json:"idempotent,omitempty"`
}

// WriteJSON serializes g.
func (g *Graph) WriteJSON(w io.Writer) error {
	jg := GraphJSON{Name: g.Name, NumData: g.NumData, Tasks: make([]TaskJSON, len(g.Tasks))}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		jt := TaskJSON{Kernel: t.Kernel, I: t.I, J: t.J, K: t.K}
		for _, a := range t.Accesses {
			jt.Accesses = append(jt.Accesses, AccessJSON{Data: a.Data, Mode: a.Mode.String(), Idempotent: a.Idempotent})
		}
		jg.Tasks[i] = jt
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// MaxPooledBytes bounds what a pool of transient buffers keeps (documents
// here, the scanner's scratch in scan.go): a buffer that had to grow past
// it is left to the collector, so one huge submission cannot pin its size
// in a pool — the fmt and encoding/json convention.
const MaxPooledBytes = 1 << 20

// documents pools the buffers wire-format documents are read into. What a
// scanner makes of a document holds none of its bytes (every string is
// copied out), so the buffer can go back as soon as it has been scanned.
var documents = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadDocument reads r to its end, or up to limit bytes of it if limit is
// positive, into a pooled buffer, which the caller hands to
// ReleaseDocument once scanned. A reader that reports a length — one over
// memory, or a request body declaring its Content-Length — has the buffer
// sized by it up front, as far as a pooled buffer goes: a declaration is
// not trusted with more before the bytes arrive, and ReadFrom grows past
// it when they do.
func ReadDocument(r io.Reader, limit int64) (*bytes.Buffer, error) {
	doc := documents.Get().(*bytes.Buffer)
	if sized, ok := r.(interface{ Len() int }); ok {
		if need := min(sized.Len(), MaxPooledBytes-bytes.MinRead) + bytes.MinRead; need > doc.Cap() {
			doc = bytes.NewBuffer(make([]byte, 0, need)) // exactly: Grow would double the pooled one
		}
	}
	if limit > 0 {
		r = io.LimitReader(r, limit)
	}
	if _, err := doc.ReadFrom(r); err != nil {
		ReleaseDocument(doc)
		return nil, err
	}
	return doc, nil
}

// ReleaseDocument returns doc to the pool, unless it outgrew it.
func ReleaseDocument(doc *bytes.Buffer) {
	if doc.Cap() <= MaxPooledBytes {
		doc.Reset()
		documents.Put(doc)
	}
}

// ReadJSON deserializes a graph written by WriteJSON and validates it.
// The document must be the whole input: anything but white space after
// it is an error, as it is for a submission.
func ReadJSON(r io.Reader) (*Graph, error) {
	doc, err := ReadDocument(r, 0)
	if err != nil {
		return nil, fmt.Errorf("stf: reading graph: %w", err)
	}
	defer ReleaseDocument(doc)
	s := NewScanner(doc.Bytes())
	var gr GraphReader
	if err = gr.Read(s); err == nil {
		err = s.End()
	}
	if err != nil {
		return nil, fmt.Errorf("stf: decoding graph: %w", err)
	}
	return gr.Graph()
}

// WriteDOT renders the derived dependency DAG in Graphviz format: one node
// per task (labelled with ID, kernel and tile coordinates), one edge per
// direct dependency.
func (g *Graph) WriteDOT(w io.Writer) error {
	deps := g.Dependencies()
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", g.Name); err != nil {
		return err
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if _, err := fmt.Fprintf(w, "  t%d [label=\"%d: k%d (%d,%d,%d)\"];\n",
			t.ID, t.ID, t.Kernel, t.I, t.J, t.K); err != nil {
			return err
		}
	}
	for id, ds := range deps {
		for _, d := range ds {
			if _, err := fmt.Fprintf(w, "  t%d -> t%d;\n", d, id); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Summary describes a graph's structure for inspection tools.
type Summary struct {
	// Name and counts of the graph.
	Name    string
	Tasks   int
	NumData int
	// Edges is the number of direct dependencies, Depth the critical-path
	// length in tasks, MaxWidth the largest dependency level.
	Edges    int
	Depth    int
	MaxWidth int
	// AvgDeps is Edges / Tasks.
	AvgDeps float64
}

// Summarize computes structural statistics of g.
func (g *Graph) Summarize() Summary {
	deps := g.Dependencies()
	levels, depth := g.Levels()
	edges := 0
	for _, d := range deps {
		edges += len(d)
	}
	width := make(map[int]int)
	maxWidth := 0
	for _, l := range levels {
		width[l]++
		if width[l] > maxWidth {
			maxWidth = width[l]
		}
	}
	s := Summary{
		Name:     g.Name,
		Tasks:    len(g.Tasks),
		NumData:  g.NumData,
		Edges:    edges,
		Depth:    depth,
		MaxWidth: maxWidth,
	}
	if len(g.Tasks) > 0 {
		s.AvgDeps = float64(edges) / float64(len(g.Tasks))
	}
	return s
}
