package ingest

// The reference the wire format's scanner is fuzzed against: the
// encoding/json decode that Parse and stf.ReadJSON went through before
// internal/stf/scan.go replaced it — one json.Unmarshal into an envelope
// embedding stf.GraphJSON, then a conversion to stf.Graph. It lives only
// here. FuzzDecodeMatchesReference is the argument that the scanner
// accepts the same language with the same meaning, but for the one thing
// it tightens on purpose: a key it interprets may not repeat.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rio/internal/graphs"
	"rio/internal/stf"
)

// envelope is the submit-body wire form as encoding/json saw it: a bare
// graph (the embedded struct takes its fields) or {"graph": …,
// "mapping": …}, either with a kernel name.
type envelope struct {
	stf.GraphJSON
	Graph   *stf.GraphJSON `json:"graph"`
	Mapping *MappingSpec   `json:"mapping"`
	Kernel  string         `json:"kernel"`
}

// referenceBuild turns the decoded form into a Graph and validates it.
func referenceBuild(jg *stf.GraphJSON) (*stf.Graph, error) {
	modes := map[string]stf.AccessMode{"R": stf.ReadOnly, "W": stf.WriteOnly, "RW": stf.ReadWrite, "Red": stf.Reduction}
	g := stf.NewGraph(jg.Name, jg.NumData)
	if len(jg.Tasks) > 0 {
		g.Tasks = make([]stf.Task, len(jg.Tasks))
	}
	for i := range jg.Tasks {
		jt := &jg.Tasks[i]
		var accesses []stf.Access
		if len(jt.Accesses) > 0 {
			accesses = make([]stf.Access, len(jt.Accesses))
		}
		for ai, ja := range jt.Accesses {
			mode, ok := modes[ja.Mode]
			if !ok {
				return nil, fmt.Errorf("task %d: unknown access mode %q", i, ja.Mode)
			}
			accesses[ai] = stf.Access{Data: ja.Data, Mode: mode, Idempotent: ja.Idempotent}
		}
		g.Tasks[i] = stf.Task{ID: stf.TaskID(i), Kernel: jt.Kernel, I: jt.I, J: jt.J, K: jt.K, Accesses: accesses}
	}
	return g, g.Validate()
}

// referenceParse is Parse as it was, on a body already in memory.
func referenceParse(body []byte, workers int) (*Submission, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	jg := env.Graph
	if jg == nil {
		if env.Tasks == nil {
			return nil, errors.New(`neither "graph" nor "tasks"`)
		}
		jg = &env.GraphJSON
	}
	g, err := referenceBuild(jg)
	if err != nil {
		return nil, err
	}
	sub, err := NewSubmission(g, env.Mapping, workers)
	if err != nil {
		return nil, err
	}
	sub.Kernel = env.Kernel
	return sub, nil
}

// referenceReadJSON is stf.ReadJSON as it was, but for reading the whole
// input rather than its first value (ReadJSON let trailing bytes pass).
func referenceReadJSON(doc []byte) (*stf.Graph, error) {
	var jg stf.GraphJSON
	if err := json.Unmarshal(doc, &jg); err != nil {
		return nil, err
	}
	return referenceBuild(&jg)
}

// schema says which keys of a JSON value are interpreted: fields of an
// object, and what the elements of an array are read as.
type schema struct {
	fields map[string]*schema
	elem   *schema
}

var (
	accessSchema = &schema{fields: map[string]*schema{"data": nil, "mode": nil, "idempotent": nil}}
	taskSchema   = &schema{fields: map[string]*schema{"kernel": nil, "i": nil, "j": nil, "k": nil,
		"accesses": {elem: accessSchema}}}
	graphSchema = &schema{fields: map[string]*schema{"name": nil, "num_data": nil, "tasks": {elem: taskSchema}}}
	// The mapping value is MappingSpec.UnmarshalJSON's, then as now.
	envelopeSchema = &schema{fields: map[string]*schema{"name": nil, "num_data": nil, "tasks": {elem: taskSchema},
		"graph": graphSchema, "mapping": nil, "kernel": nil}}
)

// repeatsKey reports whether a valid JSON document, read as sc, has an
// object naming one of its interpreted keys twice, exactly or case-folded.
// It is written against encoding/json's token stream, not the scanner.
func repeatsKey(doc []byte, sc *schema) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	var walk func(sc *schema) bool
	walk = func(sc *schema) (repeats bool) {
		if sc == nil {
			sc = &schema{}
		}
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('['):
			for dec.More() {
				repeats = walk(sc.elem) || repeats
			}
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				key, _ := dec.Token()
				var value *schema
				for name, s := range sc.fields {
					if k, _ := key.(string); strings.EqualFold(k, name) {
						repeats, seen[name], value = repeats || seen[name], true, s
					}
				}
				repeats = walk(value) || repeats
			}
		default:
			return false
		}
		dec.Token() // the closing bracket
		return repeats
	}
	return walk(sc)
}

// wireSeeds are documents at the edges of the accepted language, and at
// the edges of the scanner's fast paths (fastPathRows).
func wireSeeds() [][]byte {
	deep := func(n int) string {
		return `{"name":"deep","num_data":0,"tasks":[],"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
	}
	one := func(accesses string) string { return task(`"kernel":1,"accesses":[` + accesses + `]`) }
	seeds := []string{
		// The two parent defects: a repeated key merged into one task, and
		// bytes after the document (ReadJSON let them pass).
		`{"name":"x","num_data":1,"tasks":[{"kernel":0,"i":5}],"tasks":[{"kernel":1}]}`,
		`{"name":"x","num_data":0,"tasks":[]} garbage`,
		`{"Tasks":[],"tasks":[]}`,
		`{"tasks":null,"tasks":[]}`,
		one(`{"data":0,"mode":"W","data":1}`),
		`{"graph":{"tasks":[]},"GRAPH":null}`,
		`{"tasks":[],"comment":{"a":1,"a":2}}`,
		`{"tasks":[],"mapping":{"spec":"block","spec":"cyclic"}}`,
		// Strings: escapes, a surrogate pair, a lone surrogate, invalid UTF-8.
		`{"name":"\ud83d\ude00 \ud800 \u00e9 \"\\\/\b\f\n\r\t","num_data":0,"tasks":[]}`,
		"{\"name\":\"\xff\xfe \xc3\x28\",\"tasks\":[],\"kernel\":\"\xed\xa0\x80\"}",
		`{"name":"bad \x escape","tasks":[]}`,
		`{"name":"bad \u12G4 escape","tasks":[]}`,
		"{\"name\":\"raw\ttab\",\"tasks\":[]}",
		`{"name":"unterminated`,
		// Keys: escaped, case-folded, folded through U+212A (Kelvin sign)
		// and U+017F (long s), written raw and escaped.
		`{"t\u0061sks":[{"KERNEL":2,"I":1,"Accesses":[{"DATA":1,"Mode":"W","IDEMPOTENT":true}]}],"NUM_DATA":2,"Name":"f"}`,
		"{\"tasks\":[{\"\u212aernel\":3,\"\\u212A\":4}],\"ta\u017fks\":[]}",
		"{\"ta\u017fk\u017f\":[{\"acce\\u017f\u017fes\":[]}]}",
		`{"tasks":[],"":1,"a key longer than any the schema has":2}`,
		// null wherever a value may stand.
		`{"name":null,"num_data":null,"tasks":[null,{"kernel":null,"i":null,"j":null,"k":null,"accesses":null},{"accesses":[]}],"graph":null,"mapping":null,"kernel":null}`,
		one(`null`),
		one(`{"data":null,"mode":"R","idempotent":null}`),
		one(`{"data":0,"mode":null}`),
		`{"graph":{"name":null,"tasks":null}}`,
		`{"graph":{}}`,
		`null`, `{}`, `[]`, `7`, `"tasks"`, ``, ` `, `{"tasks":[]}x`, `{"tasks":[],}`, `{"tasks":[,]}`, `{"tasks":[] "name":"x"}`, `nul`,
		// Numbers: integers only, in range.
		one(`{"data":-0,"mode":"W"}`),
		one(`{"data":1.0,"mode":"W"}`),
		one(`{"data":1e2,"mode":"W"}`),
		one(`{"data":01,"mode":"W"}`),
		one(`{"data":2147483648,"mode":"W"}`),
		one(`{"data":-2147483649,"mode":"W"}`),
		one(`{"data":"1","mode":"W"}`),
		`{"num_data":9223372036854775808,"tasks":[]}`,
		`{"num_data":9223372036854775807,"tasks":[{"k":-9223372036854775808}]}`,
		`{"tasks":[{"kernel":1.5}]}`, `{"tasks":[{"kernel":-}]}`, `{"tasks":[{"kernel":1e}]}`, `{"tasks":[{"kernel":1.}]}`, `{"tasks":[{"kernel":true}]}`,
		`{"tasks":[],"x":[-0.0e+0,1E-2,0.5,-1]}`,
		// Modes are exact; accesses may be empty or missing; booleans are booleans.
		one(`{"data":0,"mode":"r"}`),
		one(`{"data":0,"mode":"\u0052W"}`),
		one(`{"data":0,"mode":"RW "}`),
		one(`{"data":0,"mode":7}`),
		one(`{"data":0}`),
		one(`{"data":0,"mode":"Red","idempotent":1}`),
		one(`{"data":0,"mode":"W"},{"data":0,"mode":"R"}`),
		`{"tasks":[{"accesses":[]},{}]}`,
		`{"tasks":{}}`, `{"tasks":[[]]}`, `{"tasks":[{"accesses":{}}]}`, `{"tasks":[{"accesses":[[]]}]}`,
		// The envelope: "graph" wins over stray graph keys, which must be
		// well-typed and nothing more (an unknown mode there is not read).
		`{"tasks":[{"kernel":9,"accesses":[{"data":0,"mode":"X"}]}],"num_data":77,"name":"stray","graph":{"name":"g","num_data":1,"tasks":[{"accesses":[{"data":0,"mode":"W"}]}]}}`,
		`{"tasks":[{"kernel":"nine"}],"graph":{"tasks":[]}}`,
		`{"graph":{"tasks":[{"accesses":[{"data":0,"mode":"X"}]}]},"tasks":[]}`,
		`{"graph":[1,2,3]}`, `{"kernel":7,"tasks":[]}`, `{"kernel":"sp\u0069n","tasks":[]}`,
		// Both mapping spellings, and what is neither.
		`{"graph":{"num_data":1,"tasks":[{"accesses":[{"data":0,"mode":"W"}]}]},"mapping":"single:1"}`,
		`{"graph":{"num_data":1,"tasks":[{"accesses":[{"data":0,"mode":"W"}]}]},"mapping":{"spec":"blockcyclic:2"}}`,
		`{"graph":{"num_data":1,"tasks":[{"accesses":[{"data":0,"mode":"W"}]}]},"mapping":{"assign":[2]}}`,
		`{"tasks":[],"mapping":{}}`, `{"tasks":[],"mapping":[0]}`, `{"tasks":[],"mapping":3}`, `{"tasks":[],"mapping":"bl\u006fck"}`, `{"tasks":[],"mapping" : { "spec" : "warp" } }`,
		// Unknown members are validated to the same depth: the document is
		// one level deep where "x" stands.
		deep(9999), deep(10000),
		`{"tasks":[],"x":{"a":[1,{"b":"\u00e9"}],"c":tru}}`,
	}
	for _, row := range fastPathRows() {
		seeds = append(seeds, row.body)
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzDecodeMatchesReference: on arbitrary bytes, whatever Parse accepts
// the encoding/json reference accepts, as the same submission with the
// same kernel, and what the reference accepts Parse rejects exactly when
// the document repeats a key the decoder interprets. The same holds for
// stf.ReadJSON against its reference on a graph document.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, seed := range wireSeeds() {
		f.Add(seed)
	}
	for _, g := range []*stf.Graph{graphs.LU(2), graphs.RandomDeps(12, 6, 2, 1, 5)} {
		f.Add(wire(f, g))
		f.Add([]byte(`{"kernel":"spin","mapping":{"spec":"block"},"graph":` + string(wire(f, g)) + `}`))
	}

	f.Fuzz(matchReference)
}

// matchReference checks Parse and stf.ReadJSON of data against their
// references.
func matchReference(t *testing.T, data []byte) {
	got, err := Parse(bytes.NewReader(data), fuzzWorkers)
	want, refErr := referenceParse(data, fuzzWorkers)
	switch repeats := refErr == nil && repeatsKey(data, envelopeSchema); {
	case repeats && err == nil:
		t.Fatalf("Parse accepted a submission that repeats a key:\n%s", data)
	case repeats:
	case err == nil && refErr != nil:
		t.Fatalf("Parse accepted what the reference rejects (%v):\n%s", refErr, data)
	case err != nil && refErr == nil:
		t.Fatalf("Parse rejected what the reference accepts (%v):\n%s", err, data)
	case err == nil:
		if err := sameSubmission(want, got); err != nil {
			t.Fatalf("Parse and the reference read different submissions: %v\n%s", err, data)
		}
		if got.Kernel != want.Kernel {
			t.Fatalf("kernel %q, reference %q\n%s", got.Kernel, want.Kernel, data)
		}
	}

	g, err := stf.ReadJSON(bytes.NewReader(data))
	wantG, refErr := referenceReadJSON(data)
	switch repeats := refErr == nil && repeatsKey(data, graphSchema); {
	case repeats && err == nil:
		t.Fatalf("ReadJSON accepted a graph that repeats a key:\n%s", data)
	case repeats:
	case (err == nil) != (refErr == nil):
		t.Fatalf("ReadJSON: %v, reference: %v\n%s", err, refErr, data)
	case err == nil && !reflect.DeepEqual(g, wantG):
		t.Fatalf("ReadJSON and the reference read different graphs:\n%+v\n%+v\n%s", g, wantG, data)
	}
}
