package stf_test

// Wire-format lossiness fuzz: the JSON graph form is the wire format of
// rio-serve (clients POST it, the server preflights / compiles / replays
// it), so parse→serialize→parse must be a fixed point for every field
// the server consumes — task order, kernel selectors, tile coordinates
// (K doubles as the task weight consumed by rio.WeightCost and the
// automap), access lists, modes and idempotence flags, the name and the
// data-object count. A field the serializer silently drops is not a
// cosmetic bug here but a wire-protocol one: the program the server runs
// would differ from the program the client submitted. (The mapping half
// of the wire format lives in internal/server/ingest and has its own
// round-trip tests.)

import (
	"bytes"
	"reflect"
	"testing"

	"rio/internal/graphs"
	"rio/internal/stf"
)

// fuzzSeedGraphs are serialized seeds covering every field and edge the
// encoder can see: empty access lists (omitempty), zero and negative
// coordinates, weights, reductions, idempotence, unicode names.
func fuzzSeedGraphs() []*stf.Graph {
	weighted := stf.NewGraph("weighted π", 3)
	weighted.Add(7, -1, 0, 1000, stf.Access{Data: 0, Mode: stf.WriteOnly, Idempotent: true}, stf.R(2))
	weighted.Add(0, 0, 0, 0) // no accesses: the omitempty edge
	weighted.Add(1, 2, 3, -4, stf.Red(1), stf.RW(0))
	return []*stf.Graph{
		graphs.LU(3),
		graphs.RandomDeps(20, 8, 2, 1, 7),
		graphs.Independent(4),
		stf.NewGraph("", 0),
		weighted,
	}
}

func FuzzGraphJSONRoundTrip(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"name":"x","num_data":2,"tasks":[{"kernel":1,"accesses":[{"data":1,"mode":"W","idempotent":true}]}]}`))
	f.Add([]byte(`{"tasks":[{"accesses":[]}],"num_data":0,"name":""}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g1, err := stf.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // not a well-formed graph; nothing to round-trip
		}
		var buf1 bytes.Buffer
		if err := g1.WriteJSON(&buf1); err != nil {
			t.Fatalf("serializing an accepted graph: %v", err)
		}
		g2, err := stf.ReadJSON(bytes.NewReader(buf1.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing our own serialization: %v\n%s", err, buf1.Bytes())
		}
		if !reflect.DeepEqual(g1, g2) {
			t.Fatalf("parse→serialize→parse is lossy:\nfirst:  %+v\nsecond: %+v\nwire:\n%s", g1, g2, buf1.Bytes())
		}
		// And the serialization itself must be a fixed point: a second
		// encode of the re-parsed graph is byte-identical.
		var buf2 bytes.Buffer
		if err := g2.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("serialization is not a fixed point:\nfirst:\n%s\nsecond:\n%s", buf1.Bytes(), buf2.Bytes())
		}
	})
}

// TestJSONRoundTripEmptyAccessTask pins the concrete asymmetry the fuzz
// target guards against: a task with an empty access list used to
// deserialize to a non-nil empty slice while serialization omitted the
// field, so parse→serialize→parse was not a fixed point.
func TestJSONRoundTripEmptyAccessTask(t *testing.T) {
	g1, err := stf.ReadJSON(bytes.NewReader([]byte(`{"name":"e","num_data":1,"tasks":[{"kernel":1,"accesses":[]}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g1.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := stf.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, g2) {
		t.Fatalf("empty access list does not round-trip:\nfirst:  %+v\nsecond: %+v", g1.Tasks[0], g2.Tasks[0])
	}
}
