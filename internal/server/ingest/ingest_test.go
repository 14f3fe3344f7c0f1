package ingest

// Unit tests of the shared submission path: envelope vs bare-graph
// parsing, mapping-spec resolution and validation, content-hash
// stability (the mapping half of the wire format; the graph half's
// round-trip fuzz lives in internal/stf).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rio/internal/analyze"
	"rio/internal/graphs"
	"rio/internal/stf"
)

func wire(t testing.TB, g *stf.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseBareGraph(t *testing.T) {
	g := graphs.LU(3)
	sub, err := Parse(bytes.NewReader(wire(t, g)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Graph.Tasks) != len(g.Tasks) || sub.Graph.NumData != g.NumData {
		t.Errorf("parsed %d tasks/%d data, want %d/%d", len(sub.Graph.Tasks), sub.Graph.NumData, len(g.Tasks), g.NumData)
	}
	if !sub.MappingSpec.IsDefault() {
		t.Error("bare graph did not default to the cyclic mapping")
	}
	if sub.Hash == "" {
		t.Error("no content hash derived")
	}
}

func TestParseEnvelopeWithMapping(t *testing.T) {
	g := graphs.LU(3)
	body := []byte(`{"graph":` + string(wire(t, g)) + `,"mapping":{"spec":"blockcyclic:2"}}`)
	sub, err := Parse(bytes.NewReader(body), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.MappingSpec.Canonical(); got != "blockcyclic:2" {
		t.Errorf("mapping = %q, want blockcyclic:2", got)
	}

	// The shorthand string form must parse to the same submission —
	// same mapping, same identity — as the object form.
	short, err := Parse(bytes.NewReader([]byte(`{"graph":`+string(wire(t, g))+`,"mapping":"blockcyclic:2"}`)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if short.MappingSpec.Canonical() != "blockcyclic:2" || short.Hash != sub.Hash {
		t.Errorf("string-form mapping: canonical %q hash %q, want %q %q",
			short.MappingSpec.Canonical(), short.Hash, "blockcyclic:2", sub.Hash)
	}

	bare, err := Parse(bytes.NewReader(wire(t, g)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Hash == bare.Hash {
		t.Error("mapping is not part of the flow identity: envelope and bare hashes collide")
	}
}

func TestParseRejects(t *testing.T) {
	for name, body := range map[string]string{
		"not json":        "{nope",
		"no graph":        `{"mapping":{"spec":"cyclic"}}`,
		"null tasks":      `{"name":"x","num_data":0,"tasks":null}`,
		"null graph":      `{"graph":null,"mapping":"cyclic"}`,
		"kernel only":     `{"kernel":"noop"}`,
		"graph not a map": `{"graph":[1,2,3]}`,
		"kernel a number": `{"name":"x","num_data":0,"tasks":[],"kernel":7}`,
		"bad mode in env": `{"graph":{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"X"}]}]}}`,
		"trailing bytes":  `{"name":"x","num_data":0,"tasks":[]} {"kernel":"noop"}`,
		"bad mode":        `{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"X"}]}]}`,
		"data oob":        `{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":9,"mode":"W"}]}]}`,
		"both mappings":   `{"graph":{"name":"x","num_data":0,"tasks":[]},"mapping":{"spec":"block","assign":[0]}}`,
		"assign mismatch": `{"graph":{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"W"}]}]},"mapping":{"assign":[0,1]}}`,
		"assign oob":      `{"graph":{"name":"x","num_data":1,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"W"}]}]},"mapping":{"assign":[7]}}`,
		"unknown spec":    `{"graph":{"name":"x","num_data":0,"tasks":[]},"mapping":{"spec":"warp"}}`,
		// A key the decoder reads may stand once in its object: encoding/json
		// merged the first of these into one task {kernel 1, i 5}.
		"dup tasks":      `{"name":"x","num_data":1,"tasks":[{"kernel":0,"i":5}],"tasks":[{"kernel":1}]}`,
		"dup folded key": `{"Tasks":[],"tasks":[]}`,
		"dup in access":  `{"name":"x","num_data":2,"tasks":[{"kernel":0,"accesses":[{"data":0,"mode":"W","data":1}]}]}`,
	} {
		if _, err := Parse(strings.NewReader(body), 4); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeErrorsSayWhere: an error found while decoding names the task
// (and access) it was found in and the byte offset of the offending token.
func TestDecodeErrorsSayWhere(t *testing.T) {
	for name, c := range map[string]struct{ body, token, where string }{
		"unknown mode": {`{"name":"x","num_data":2,"tasks":[{"kernel":0},{"kernel":1,"accesses":[{"data":0,"mode":"W"},{"data":1,"mode":"X"}]}]}`,
			`"X"`, `task 1: access 1: unknown access mode "X"`},
		"data not an integer": {`{"name":"x","num_data":2,"tasks":[{"kernel":0,"accesses":[{"mode":"W","data":0.5}]}]}`,
			`0.5`, `task 0: access 0: 0.5 is not`},
		"repeated key": {`{"name":"x","num_data":0,"tasks":[{},{},{"kernel":1,"j":2,"Kernel":3}]}`,
			`"Kernel"`, `task 2: repeated key "kernel"`},
		"missing colon": {`{"name":"x","num_data":0,"tasks":[{"kernel":0}, {"kernel" 1}]}`,
			`1}`, `task 1: unexpected '1'`},
	} {
		_, err := Parse(strings.NewReader(c.body), 4)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if at := fmt.Sprintf("(offset %d)", strings.Index(c.body, c.token)); !strings.Contains(err.Error(), c.where) || !strings.HasSuffix(err.Error(), at) {
			t.Errorf("%s: %q, want %q … %s", name, err, c.where, at)
		}
	}
}

// mustParse parses body for 4 workers.
func mustParse(t *testing.T, body string) *Submission {
	t.Helper()
	sub, err := Parse(strings.NewReader(body), 4)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, body)
	}
	return sub
}

// sameSubmission reports whether two submissions are the same flow under
// the same mapping: equal graph, wire spec, identity and sampled owners
// (the resolved mapping is a closure, so it is compared by what it
// answers). The kernel is per request and not part of it.
func sameSubmission(a, b *Submission) error {
	switch {
	case !reflect.DeepEqual(a.Graph, b.Graph):
		return fmt.Errorf("graphs differ:\n%+v\n%+v", a.Graph, b.Graph)
	case a.MappingSpec.Canonical() != b.MappingSpec.Canonical():
		return fmt.Errorf("mapping %q vs %q", a.MappingSpec.Canonical(), b.MappingSpec.Canonical())
	case a.Hash != b.Hash || a.Workers != b.Workers:
		return fmt.Errorf("identity %s/%d vs %s/%d", a.Hash, a.Workers, b.Hash, b.Workers)
	}
	for i := range a.Graph.Tasks {
		if id := stf.TaskID(i); a.Mapping(id) != b.Mapping(id) {
			return fmt.Errorf("task %d owned by %d vs %d", i, a.Mapping(id), b.Mapping(id))
		}
	}
	return nil
}

// TestWireForms pins what the single decode accepts: the bare graph and
// the envelope are two spellings of one submission, "graph" wins over
// stray top-level graph fields, the kernel rides along in either form,
// and the mapping has a string and an object spelling.
func TestWireForms(t *testing.T) {
	g := graphs.LU(3)
	bare := string(wire(t, g))
	want := mustParse(t, bare)
	if !reflect.DeepEqual(want.Graph, g) {
		t.Fatalf("bare graph does not parse back to the graph that wrote it")
	}
	if want.Kernel != "" {
		t.Errorf("kernel = %q from a body that names none", want.Kernel)
	}
	// A bare graph with one more top-level field: splice it in after the
	// opening brace.
	bareWith := func(field string) string { return "{" + field + "," + strings.TrimPrefix(bare, "{") }

	for name, c := range map[string]struct{ body, kernel string }{
		"envelope":                 {`{"graph":` + bare + `}`, ""},
		"envelope, null mapping":   {`{"graph":` + bare + `,"mapping":null}`, ""},
		"envelope, cyclic by name": {`{"graph":` + bare + `,"mapping":"cyclic"}`, ""},
		// "graph" wins: stray top-level graph fields are ignored, not merged.
		"envelope, stray tasks":      {`{"tasks":[{"kernel":9}],"num_data":77,"name":"stray","graph":` + bare + `}`, ""},
		"envelope, stray null tasks": {`{"graph":` + bare + `,"tasks":null}`, ""},
		"envelope with kernel":       {`{"kernel":"spin","graph":` + bare + `}`, "spin"},
		"bare with kernel":           {bareWith(`"kernel":"fold"`), "fold"},
		"bare, null graph":           {bareWith(`"graph":null`), ""},
		"bare, unknown field":        {bareWith(`"comment":{"by":["anyone"]}`), ""},
	} {
		got := mustParse(t, c.body)
		if err := sameSubmission(want, got); err != nil {
			t.Errorf("%s: not the bare submission: %v", name, err)
		}
		if got.Kernel != c.kernel {
			t.Errorf("%s: kernel = %q, want %q", name, got.Kernel, c.kernel)
		}
	}

	// The two mapping spellings are one submission, and a different one
	// from the default.
	short := mustParse(t, `{"graph":`+bare+`,"mapping":"blockcyclic:2"}`)
	long := mustParse(t, `{"graph":`+bare+`,"mapping":{"spec":"blockcyclic:2"}}`)
	if err := sameSubmission(short, long); err != nil {
		t.Errorf("string and object mapping forms differ: %v", err)
	}
	if short.Hash == want.Hash {
		t.Error("mapping is not part of the flow identity")
	}

	// An empty flow is a flow; tasks that are null or absent are not.
	if sub := mustParse(t, `{"name":"empty","num_data":0,"tasks":[]}`); len(sub.Graph.Tasks) != 0 {
		t.Errorf("empty flow parsed %d tasks", len(sub.Graph.Tasks))
	}
}

func TestHashStability(t *testing.T) {
	g := graphs.Cholesky(4)
	h1, err := Hash(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Hash(g, &MappingSpec{Spec: "cyclic"})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("nil and explicit-cyclic mapping specs hash differently")
	}
	// Same bytes parsed twice hash identically (the dedup property the
	// server's flow table relies on).
	s1, err := Parse(bytes.NewReader(wire(t, g)), 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(bytes.NewReader(wire(t, g)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Hash != s2.Hash {
		t.Error("identical submissions hash differently")
	}
	if s1.Hash != h1 {
		t.Error("Parse and Hash disagree on the same flow")
	}
}

// TestHashCoversTheWireForm: everything WriteJSON serializes is part of
// the identity — renaming a flow, moving one coordinate or flagging one
// access idempotent makes a different flow — and nothing else is.
func TestHashCoversTheWireForm(t *testing.T) {
	base := func() *stf.Graph {
		g := stf.NewGraph("h", 3)
		g.Add(1, 2, 3, 4, stf.W(0), stf.R(1))
		g.Add(0, 0, 0, 0, stf.RW(0))
		return g
	}
	hash := func(g *stf.Graph) string {
		h, err := Hash(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	want := hash(base())
	if hash(base()) != want {
		t.Fatal("equal flows hash differently")
	}
	for name, edit := range map[string]func(*stf.Graph){
		"name":       func(g *stf.Graph) { g.Name = "h2" },
		"num_data":   func(g *stf.Graph) { g.NumData = 4 },
		"kernel":     func(g *stf.Graph) { g.Tasks[0].Kernel = 2 },
		"i":          func(g *stf.Graph) { g.Tasks[0].I = 0 },
		"j":          func(g *stf.Graph) { g.Tasks[1].J = 1 },
		"k":          func(g *stf.Graph) { g.Tasks[1].K = -1 },
		"data":       func(g *stf.Graph) { g.Tasks[0].Accesses[1].Data = 2 },
		"mode":       func(g *stf.Graph) { g.Tasks[0].Accesses[1].Mode = stf.Reduction },
		"idempotent": func(g *stf.Graph) { g.Tasks[0].Accesses[0].Idempotent = true },
		"task split": func(g *stf.Graph) { g.Tasks[0].Accesses = g.Tasks[0].Accesses[:1]; g.Add(0, 0, 0, 0, stf.R(1)) },
		"task added": func(g *stf.Graph) { g.Add(0, 0, 0, 0) },
	} {
		g := base()
		edit(g)
		if hash(g) == want {
			t.Errorf("changing %s does not change the flow's identity", name)
		}
	}
	if h, _ := Hash(base(), &MappingSpec{Spec: "block"}); h == want {
		t.Error("the mapping does not change the flow's identity")
	}
}

// layeredBody is a submission of layers × 50 tasks, each reading two data
// of the previous layer and updating its own, in WriteJSON's indented
// spelling.
func layeredBody(t testing.TB, layers int) []byte {
	const width = 50
	g := stf.NewGraph("layered", 2*width)
	for l := 0; l < layers; l++ {
		own, other := (l%2)*width, ((l+1)%2)*width
		for j := 0; j < width; j++ {
			d := stf.DataID(own + j)
			if l == 0 {
				g.Add(0, l, j, 1, stf.W(d))
				continue
			}
			g.Add(0, l, j, 1, stf.R(stf.DataID(other+j)), stf.R(stf.DataID(other+(j+7)%width)), stf.RW(d))
		}
	}
	return wire(t, g)
}

// coldBody is a serve-cold-sized submission: 1 500 tasks, 440 KB.
func coldBody(t testing.TB) []byte { return layeredBody(t, 30) }

// compact is body without its white space.
func compact(t testing.TB, body []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := json.Compact(&out, body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// mixed is body with every other task spelled compact: two layouts in one
// document.
func mixed(t testing.TB, body []byte) []byte {
	t.Helper()
	var g stf.GraphJSON
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatal(err)
	}
	out := fmt.Appendf(nil, "{\n  \"name\": %q,\n  \"num_data\": %d,\n  \"tasks\": [", g.Name, g.NumData)
	for i, task := range g.Tasks {
		spelled, err := json.MarshalIndent(task, "    ", "  ")
		if i%2 == 1 {
			spelled, err = json.Marshal(task)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(append(out, "\n    "...), spelled...)
	}
	return append(out, "\n  ]\n}\n"...)
}

// spellings is coldBody in WriteJSON's indented spelling, compact, and
// mixed, one task of each in turn.
func spellings(t testing.TB) (names []string, bodies [][]byte) {
	indented := coldBody(t)
	return []string{"indented", "compact", "mixed"}, [][]byte{indented, compact(t, indented), mixed(t, indented)}
}

// BenchmarkParse is Parse of coldBody: MB/s of the whole cold read path
// (read, scan, validate, hash) and its allocations, in the indented
// spelling WriteJSON emits, in the compact one, and in both in turn, so
// that no uniform spelling is made faster at another's cost.
func BenchmarkParse(b *testing.B) {
	names, bodies := spellings(b)
	for i, body := range bodies {
		b.Run(names[i], func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Parse(bytes.NewReader(body), 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreflight is Preflight of coldBody's flow under the server's
// default passes (access and mapping): the cold path's stage after Parse,
// whose structural scan looks at every access of every task.
func BenchmarkPreflight(b *testing.B) {
	sub, err := Parse(bytes.NewReader(coldBody(b)), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Preflight(sub, analyze.PassAccess|analyze.PassMapping); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHash is Hash of coldBody's flow: the encoding of its canonical
// form and the SHA-256 blocks over it.
func BenchmarkHash(b *testing.B) {
	sub, err := Parse(bytes.NewReader(coldBody(b)), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Hash(sub.Graph, sub.MappingSpec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmit is the server's cold stages of coldBody without HTTP:
// Parse, Preflight under the default passes and the one-worker lowering,
// pruned as rio-serve prunes by default — what a never-seen flow pays
// before its first task when its kernel runs at one worker.
func BenchmarkSubmit(b *testing.B) {
	body := coldBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		sub, err := Parse(bytes.NewReader(body), 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Preflight(sub, analyze.PassAccess|analyze.PassMapping); err != nil {
			b.Fatal(err)
		}
		if _, err := sub.Compile(1, true); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseDecodesOnce is the white-box check that a submission body is
// read once and scanned once, straight into the graph, and that what dies
// with the request comes from a pool: in steady state Parse of coldBody,
// in each spelling, may allocate at most 1.0 byte per body byte — the
// exact-size tasks and accesses the flow table retains (0.3 of the
// indented body, 0.8 of the compact one), not the body, not the slices
// they grew in — in fewer than 30 allocations. A
// body buffer per request costs 1.0 on its own, a second decode or a
// re-serialization more (17.5 bytes per byte before they were removed),
// and a decoder that allocates per task or per key cannot stay under the
// count (7 412 through encoding/json).
func TestParseDecodesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations and drops pooled buffers at random; the budget is for a plain build")
	}
	names, bodies := spellings(t)
	for i, body := range bodies {
		t.Run(names[i], func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Parse(bytes.NewReader(body), 2); err != nil {
						b.Fatal(err)
					}
				}
			})
			perByte := float64(res.AllocedBytesPerOp()) / float64(len(body))
			if perByte > 1.0 {
				t.Errorf("Parse allocates %.1f bytes per body byte (%d B for a %d B body), want at most 1.0: is the body, or the scratch, allocated per request?",
					perByte, res.AllocedBytesPerOp(), len(body))
			}
			if res.AllocsPerOp() >= 30 {
				t.Errorf("Parse makes %d allocations for %d tasks, want fewer than 30: does the decoder allocate per task?", res.AllocsPerOp(), 1500)
			}
			t.Logf("Parse: %.2f bytes allocated per body byte, %d allocs, %d B body", perByte, res.AllocsPerOp(), len(body))
		})
	}
}

// TestParseRetainsNoBody: the body buffer is pooled, so a Submission may
// hold nothing of it. A second Parse, of a different body of the same
// length through the same buffer, must leave the first submission as it
// was: flow name, kernel and mapping spec are copies.
func TestParseRetainsNoBody(t *testing.T) {
	g := graphs.LU(3)
	envelope := func(name, kernel, spec string) string {
		g.Name = name
		return `{"kernel":"` + kernel + `","mapping":{"spec":"` + spec + `"},"graph":` + string(wire(t, g)) + `}`
	}
	first, second := envelope("first flow", "spin", "blockcyclic:2"), envelope("other flow", "fold", "blockcyclic:3")
	if len(first) != len(second) {
		t.Fatalf("the two bodies must overwrite each other byte for byte: %d and %d bytes", len(first), len(second))
	}
	for round := 0; round < 4; round++ { // a pool may drop a buffer; not four times running
		sub := mustParse(t, first)
		other := mustParse(t, second)
		if other.Graph.Name != "other flow" || other.Kernel != "fold" || other.MappingSpec.Spec != "blockcyclic:3" {
			t.Fatalf("the second body parsed as %q, %q, %q", other.Graph.Name, other.Kernel, other.MappingSpec.Spec)
		}
		if err := sameSubmission(mustParse(t, first), sub); err != nil || sub.Kernel != "spin" || sub.MappingSpec.Spec != "blockcyclic:2" || sub.Graph.Name != "first flow" {
			t.Fatalf("a later Parse changed an earlier submission: %v; name %q, kernel %q, mapping %q",
				err, sub.Graph.Name, sub.Kernel, sub.MappingSpec.Spec)
		}
	}
}

// declared is a reader that reports a length it may not have, as a request
// body reports its Content-Length.
type declared struct {
	io.Reader
	n int
}

func (d declared) Len() int { return d.n }

// allocated is the number of bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseDoesNotTrustDeclaredLength: a declared length sizes the body
// buffer only as far as a pooled buffer goes. A client that declares the
// maximum and sends sixteen bytes costs at most that, not 32 MB, and gets
// the answer its sixteen bytes deserve; an honest body larger than the cap
// still parses, its buffer grown while reading, and is not pooled.
func TestParseDoesNotTrustDeclaredLength(t *testing.T) {
	const sent = `{"name":"x","tas`
	_, want := Parse(strings.NewReader(sent), 2)
	var err error
	const budget = stf.MaxPooledBytes + stf.MaxPooledBytes/4 // the buffer, and the error
	if n := allocated(func() { _, err = Parse(declared{strings.NewReader(sent), MaxBodyBytes}, 2) }); n > budget {
		t.Errorf("a declared length of %d bytes cost %d bytes before one was validated, want at most %d", MaxBodyBytes, n, budget)
	}
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("Parse: %v, want what the bytes sent draw without a declaration: %v", err, want)
	}

	big := layeredBody(t, 80) // 4 000 tasks
	if len(big) <= stf.MaxPooledBytes {
		t.Fatalf("the large body has %d bytes, want more than %d", len(big), stf.MaxPooledBytes)
	}
	got, err := Parse(bytes.NewReader(big), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // whatever the pool hands out next is not that buffer
		if doc, err := stf.ReadDocument(strings.NewReader(""), 0); err != nil || doc.Cap() > stf.MaxPooledBytes {
			t.Errorf("the pool holds a buffer of %d bytes (%v), want none above %d", doc.Cap(), err, stf.MaxPooledBytes)
		}
	}
	if ref, err := referenceParse(big, 2); err != nil {
		t.Fatal(err)
	} else if err := sameSubmission(ref, got); err != nil {
		t.Errorf("a body past the pooled size: %v", err)
	}
}

func TestNewSubmissionValidates(t *testing.T) {
	g := graphs.LU(3)
	if _, err := NewSubmission(g, nil, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewSubmission(g, &MappingSpec{Assign: []int{0}}, 2); err == nil {
		t.Error("short assignment accepted")
	}
	sub, err := NewSubmission(g, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Workers != 2 || sub.Mapping == nil {
		t.Errorf("submission not populated: %+v", sub)
	}
}

func TestPreflightRejectsWarning(t *testing.T) {
	// Read-before-first-write: the access lint warns, which rejects.
	g := stf.NewGraph("bad", 1)
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 0, 0, 0, stf.W(0))
	sub, err := NewSubmission(g, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Preflight(sub, analyze.PassAccess|analyze.PassMapping)
	if err == nil {
		t.Fatal("uninit-read flow passed preflight")
	}
	if report == nil || report.Warnings == 0 {
		t.Error("rejection carries no warning findings")
	}

	clean, err := NewSubmission(graphs.LU(3), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Preflight(clean, analyze.PassAccess|analyze.PassMapping); err != nil {
		t.Errorf("clean flow rejected: %v", err)
	}
}

func TestWorkloadGrammarShared(t *testing.T) {
	// The grammar is analyze.WorkloadGraph's — every workload the CLI
	// tools accept must come through here too.
	for _, wl := range []string{"lu", "cholesky", "gemm", "wavefront", "chain", "independent", "random", "tree", "forkjoin"} {
		if _, err := Workload(wl, 3, 1); err != nil {
			t.Errorf("workload %s: %v", wl, err)
		}
	}
	if _, err := Workload("warp", 3, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
