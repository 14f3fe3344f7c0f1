package ingest

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rio/internal/graphs"
	"rio/internal/stf"
)

// fuzzWorkers is the worker count every fuzzed submission is parsed for.
const fuzzWorkers = 3

// flowFromBytes decodes an arbitrary byte string into a small valid flow
// and a mapping spec for it: every 4 bytes define one access (new-task
// flag and coordinates, data, mode, idempotence), the first byte picks the
// spec.
func flowFromBytes(data []byte) (*stf.Graph, *MappingSpec) {
	const maxData = 5
	g := stf.NewGraph("fuzz", maxData)
	for i := 0; i+3 < len(data) && len(g.Tasks) < 16; i += 4 {
		if data[i]%2 == 0 || len(g.Tasks) == 0 {
			g.Add(int(data[i]), int(data[i+1])-128, 0, int(data[i+3]))
		}
		t := &g.Tasks[len(g.Tasks)-1]
		a := stf.Access{
			Data:       stf.DataID(data[i+1] % maxData),
			Mode:       stf.ReadOnly + stf.AccessMode(data[i+2]%4),
			Idempotent: data[i+3]%2 == 1,
		}
		dup := false
		for _, prev := range t.Accesses {
			dup = dup || prev.Data == a.Data
		}
		if !dup && data[i+2] < 200 { // the rest leave the task without this access
			t.Accesses = append(t.Accesses, a)
		}
	}
	specs := []*MappingSpec{nil, {Spec: "cyclic"}, {Spec: "block"}, {Spec: "blockcyclic:2"}, {Spec: "single:1"}, {}}
	ms := specs[0]
	if len(data) > 0 {
		ms = specs[int(data[0])%len(specs)]
	}
	if ms != nil && ms.Spec == "" && len(g.Tasks) > 0 { // the explicit form
		ms = &MappingSpec{Assign: make([]int, len(g.Tasks))}
		for i := range ms.Assign {
			ms.Assign[i] = (i + int(data[0])) % fuzzWorkers
		}
	}
	return g, ms
}

// FuzzParse fuzzes the submission wire format through its one decoder.
// On arbitrary bytes Parse must not panic, and whatever it accepts must
// keep its identity through Parse → WriteJSON → Parse. On a generated flow
// and mapping, every spelling of the submission — bare graph or envelope,
// mapping as string or object — must parse to the same submission.
func FuzzParse(f *testing.F) {
	for _, g := range []*stf.Graph{graphs.LU(2), graphs.Chain(3), stf.NewGraph("empty", 0)} {
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add([]byte(`{"kernel":"spin","mapping":"single:1","graph":` + buf.String() + `}`))
	}
	f.Add([]byte(`{"graph":{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"W"}]}]},"mapping":{"assign":[2]}}`))
	f.Add([]byte(`{"tasks":null,"graph":null,"mapping":null,"kernel":null}`))
	f.Add([]byte{0, 130, 1, 4, 1, 2, 2, 7, 2, 131, 3, 0, 5, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if sub, err := Parse(bytes.NewReader(data), fuzzWorkers); err == nil {
			again := parseSpelled(t, sub.Graph, sub.MappingSpec, true, true)
			if err := sameSubmission(sub, again); err != nil {
				t.Fatalf("Parse → WriteJSON → Parse changed the submission: %v\n%s", err, data)
			}
		}

		g, ms := flowFromBytes(data)
		want, err := NewSubmission(g, ms, fuzzWorkers)
		if err != nil {
			t.Fatalf("generator produced an invalid instance: %v", err)
		}
		for _, spelling := range [][2]bool{{false, false}, {true, false}, {true, true}} {
			if ms != nil && !spelling[0] {
				continue // a bare graph cannot carry a mapping
			}
			got := parseSpelled(t, g, ms, spelling[0], spelling[1])
			if err := sameSubmission(want, got); err != nil {
				t.Fatalf("envelope=%v object=%v: %v", spelling[0], spelling[1], err)
			}
		}
	})
}

// parseSpelled encodes (g, ms) in one of the wire format's spellings and
// parses it back: a bare graph or an envelope, the mapping — when the spec
// has a string form — as a string or as an object.
func parseSpelled(t *testing.T, g *stf.Graph, ms *MappingSpec, envelope, object bool) *Submission {
	t.Helper()
	body := string(wire(t, g))
	if envelope {
		mapping := []byte("null")
		if ms != nil && (object || len(ms.Assign) > 0) {
			mapping, _ = json.Marshal(ms)
		} else if ms != nil {
			mapping, _ = json.Marshal(ms.Spec)
		}
		body = `{"mapping":` + string(mapping) + `,"graph":` + body + `}`
	}
	sub, err := Parse(strings.NewReader(body), fuzzWorkers)
	if err != nil {
		t.Fatalf("re-parsing our own encoding: %v\n%s", err, body)
	}
	return sub
}
