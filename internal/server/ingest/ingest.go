// Package ingest is the single submission path shared by the rio-serve
// service and the rio-vet CLI: it parses the JSON wire format — the
// graph form rio-vet -emit json writes and rio-vet -graph reads,
// optionally wrapped in an envelope that adds a mapping — validates the
// (graph, workers, mapping) instance, preflights it through
// internal/analyze, and derives the content hash that gives a graph a
// stable identity across requests.
//
// The service and the tools parsing through one package is a protocol
// guarantee, not a convenience: a flow that rio-vet vets clean is
// accepted by the server byte-for-byte, and a flow the server rejects
// can be reproduced and diagnosed locally with the same tools.
package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"rio/internal/analyze"
	"rio/internal/sched"
	"rio/internal/stf"
)

// MaxBodyBytes bounds a submission body. The server enforces it with
// http.MaxBytesReader; Parse enforces it again for non-HTTP callers.
const MaxBodyBytes = 32 << 20

// MappingSpec is the wire form of a static task→worker mapping. Exactly
// one of the fields may be set:
//
//   - Spec names a parametric mapping in the grammar the CLI tools use:
//     cyclic | block | blockcyclic:B | single:W | owner2d.
//   - Assign lists one worker per task (Assign[i] owns task i) — the
//     fully explicit form, e.g. the output of an automap run.
//
// A nil *MappingSpec (or a zero one) means the cyclic default.
//
// On the wire the mapping is either the spec string directly
// ("mapping": "blockcyclic:2") or the object form ({"spec": …} /
// {"assign": […]}); UnmarshalJSON accepts both.
type MappingSpec struct {
	Spec   string `json:"spec,omitempty"`
	Assign []int  `json:"assign,omitempty"`
}

// UnmarshalJSON accepts the shorthand string form alongside the object
// form, so envelopes can say "mapping": "blockcyclic:2" the way every
// CLI -mapping flag is written.
func (ms *MappingSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*ms = MappingSpec{Spec: s}
		return nil
	}
	// Alias dodges recursion into this method.
	type plain MappingSpec
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*ms = MappingSpec(p)
	return nil
}

// IsDefault reports whether the spec denotes the cyclic default mapping
// (nil, empty, or literally "cyclic").
func (ms *MappingSpec) IsDefault() bool {
	return ms == nil || (len(ms.Assign) == 0 && (ms.Spec == "" || ms.Spec == "cyclic"))
}

// Canonical is the stable text form of the spec used for hashing and
// display: "cyclic" for the default, the spec string, or "assign:w0,w1,…"
// for the explicit form.
func (ms *MappingSpec) Canonical() string {
	if ms.IsDefault() {
		return "cyclic"
	}
	if len(ms.Assign) > 0 {
		b := append(make([]byte, 0, len("assign:")+2*len(ms.Assign)), "assign:"...)
		for i, w := range ms.Assign {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(w), 10)
		}
		return string(b)
	}
	return ms.Spec
}

// Build resolves the spec into a runnable mapping for g over workers,
// validating it (explicit assignments must cover every task and stay in
// [0, workers)). The parametric grammar is analyze.ParseMapping's — the
// same one the CLI -mapping flags accept.
func (ms *MappingSpec) Build(g *stf.Graph, workers int) (stf.Mapping, error) {
	if workers < 1 {
		return nil, fmt.Errorf("ingest: mapping needs a positive worker count (got %d)", workers)
	}
	if ms != nil && ms.Spec != "" && len(ms.Assign) > 0 {
		return nil, errors.New("ingest: mapping declares both spec and assign; use one")
	}
	if ms != nil && len(ms.Assign) > 0 {
		if g != nil && len(ms.Assign) != len(g.Tasks) {
			return nil, fmt.Errorf("ingest: explicit mapping assigns %d tasks, flow has %d", len(ms.Assign), len(g.Tasks))
		}
		assign := make([]stf.WorkerID, len(ms.Assign))
		for i, w := range ms.Assign {
			if w < 0 || w >= workers {
				return nil, fmt.Errorf("ingest: explicit mapping sends task %d to worker %d, out of range [0,%d)", i, w, workers)
			}
			assign[i] = stf.WorkerID(w)
		}
		return func(id stf.TaskID) stf.WorkerID {
			if id < 0 || int(id) >= len(assign) {
				return stf.SharedWorker
			}
			return assign[id]
		}, nil
	}
	spec := "cyclic"
	if ms != nil && ms.Spec != "" {
		spec = ms.Spec
	}
	return analyze.ParseMapping(spec, g, workers)
}

// Submission is one parsed, validated flow ready for preflight and
// compilation.
type Submission struct {
	// Graph is the recorded task flow.
	Graph *stf.Graph
	// MappingSpec is the submission's mapping in wire form (nil = cyclic
	// default); Mapping is its resolved, validated closure, and Owners
	// that closure resolved over the graph's tasks (Owners[i] runs task
	// i): the instance check, preflight's mapping pass and the lowering at
	// Workers all read the one table.
	MappingSpec *MappingSpec
	Mapping     stf.Mapping
	Owners      []stf.WorkerID
	// Workers is the worker count the instance was validated against.
	Workers int
	// Hash is the content identity of (graph, mapping): two submissions
	// with equal hashes are the same program and may share one compiled
	// form. It is computed from the decoded flow, not from the bytes that
	// carried it, so it is stable across encodings, processes and machines.
	Hash string
	// Kernel is the kernel name the body carried, if any. Only POST
	// /v1/run reads it; it is not part of the flow's identity.
	Kernel string
}

// envelopeKeys are the keys of a submission body: either a bare graph
// (exactly the rio-vet -emit json output — the graph's own keys come
// first, numbered as stf.GraphReader.Field takes them) or {"graph": …,
// "mapping": …}. Either form may carry a kernel name for POST /v1/run.
var envelopeKeys = append(slices.Clip(stf.GraphKeys), "graph", "mapping", "kernel")

// Parse reads one submission — a bare graph JSON document or an
// envelope adding a mapping — validates the (graph, workers, mapping)
// instance through the same analyze entry points the CLI tools use, and
// computes its content hash. The body is read once and decoded once, by
// the scanner stf.ReadJSON uses (see internal/stf/scan.go for the
// language it accepts), out of a pooled buffer: the Submission holds none
// of the body's bytes.
func Parse(r io.Reader, workers int) (*Submission, error) {
	body, err := stf.ReadDocument(r, MaxBodyBytes+1)
	if err != nil {
		return nil, fmt.Errorf("ingest: reading submission: %w", err)
	}
	defer stf.ReleaseDocument(body)
	if body.Len() > MaxBodyBytes {
		return nil, fmt.Errorf("ingest: submission exceeds %d bytes", MaxBodyBytes)
	}
	var (
		s           = stf.NewScanner(body.Bytes())
		bare, graph stf.GraphReader // the top-level graph keys, and the "graph" object
		hasGraph    bool
		ms          *MappingSpec
		kernel      string
	)
	err = s.Object(envelopeKeys, func(k int) (err error) {
		switch envelopeKeys[k] {
		default:
			return bare.Field(s, k)
		case "kernel":
			kernel, err = s.String()
		case "graph":
			if hasGraph = !s.Null(); hasGraph {
				err = graph.Read(s)
			}
		case "mapping":
			if !s.Null() {
				ms = new(MappingSpec)
				if err = s.Unmarshal(ms); err != nil {
					err = fmt.Errorf("mapping: %w", err)
				}
			}
		}
		return err
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: decoding submission: %w", err)
	}
	// "graph" wins over stray top-level graph keys, which had to be
	// well-typed and nothing more.
	doc := &graph
	if !hasGraph {
		if !bare.HasTasks {
			return nil, errors.New(`ingest: submission has neither "graph" nor "tasks"; POST a graph document or {"graph": …, "mapping": …}`)
		}
		doc = &bare
	}
	g, err := doc.Graph() // validated: the stages after Parse do not check it again
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	sub, err := newSubmission(g, ms, workers, analyze.ValidateMapping)
	if err != nil {
		return nil, err
	}
	sub.Kernel = kernel
	return sub, nil
}

// runKeys are the keys of a run body.
var runKeys = []string{"kernel"}

// ParseRun reads the body of POST /v1/flows/{id}/run, {"kernel": name},
// by the rules of a submission: keys fold, null is absent, other members
// are skipped, and nothing but white space may follow the object. An
// empty body means the defaults. It returns the kernel name, empty when
// none is given.
func ParseRun(r io.Reader) (kernel string, err error) {
	body, err := stf.ReadDocument(r, 0)
	if err != nil {
		return "", fmt.Errorf("ingest: reading run request: %w", err)
	}
	defer stf.ReleaseDocument(body)
	if len(bytes.TrimLeft(body.Bytes(), " \t\r\n")) == 0 {
		return "", nil
	}
	var s stf.Scanner
	s.Reset(body.Bytes())
	err = s.Object(runKeys, func(int) (err error) {
		kernel, err = s.String()
		return err
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return "", fmt.Errorf("ingest: decoding run request: %w", err)
	}
	return kernel, nil
}

// NewSubmission validates an already-parsed graph + mapping spec and
// derives its hash — the non-HTTP entry used by tools that built the
// graph in process.
func NewSubmission(g *stf.Graph, ms *MappingSpec, workers int) (*Submission, error) {
	return newSubmission(g, ms, workers, analyze.ValidateInstance)
}

// newSubmission builds the submission of g under ms, checking the
// instance with validate: analyze.ValidateInstance for a graph nobody has
// validated, analyze.ValidateMapping for one Parse's reader has.
func newSubmission(g *stf.Graph, ms *MappingSpec, workers int,
	validate func(*stf.Graph, int, stf.Mapping) ([]stf.WorkerID, error)) (*Submission, error) {
	m, err := ms.Build(g, workers)
	if err != nil {
		return nil, err
	}
	owners, err := validate(g, workers, m)
	if err != nil {
		return nil, err
	}
	hash, err := Hash(g, ms)
	if err != nil {
		return nil, err
	}
	return &Submission{Graph: g, MappingSpec: ms, Mapping: m, Owners: owners, Workers: workers, Hash: hash}, nil
}

// Compile lowers the submission's program of width workers from what the
// submission already knows: at Workers under its mapping, through Owners
// (or the mapping resolved again once a holder has dropped the table), and
// at one worker with every task on worker 0, which needs no mapping call
// and no analysis (stf.CompileOwned). prune applies §3.5 pruning. The
// graph is not validated again. It is rio.Compile's program for the same
// width and mapping (the cyclic default at one worker).
func (s *Submission) Compile(workers int, prune bool) (*stf.CompiledProgram, error) {
	var owners []stf.WorkerID
	switch workers {
	case s.Workers:
		if owners = s.Owners; owners == nil {
			owners = sched.Owners(s.Graph, s.Mapping)
		}
	case 1:
	default:
		return nil, fmt.Errorf("ingest: a submission validated for %d workers compiles for %d or 1, not %d", s.Workers, s.Workers, workers)
	}
	var rel [][]bool
	if prune {
		rel = sched.RelevantOwned(s.Graph, owners, workers)
	}
	return stf.CompileOwned(s.Graph, owners, workers, rel)
}

// Hash returns the content identity of a (graph, mapping) pair: the
// hex-encoded SHA-256 of a binary canonical form of everything WriteJSON
// serializes — name, num_data, each task's kernel/i/j/k and accesses
// (data, mode, idempotent) — followed by the canonical mapping text.
// Values are self-delimiting and lists length-prefixed, so distinct flows
// have distinct forms. Submitting the same flow twice — from different
// clients, processes or machines — yields the same hash, which is what
// lets a server compile it once and replay it for everyone. The error is
// always nil.
func Hash(g *stf.Graph, ms *MappingSpec) (string, error) {
	// The form is encoded into one buffer handed to the hash about 4 KB
	// at a time: a write per task and a call into encoding/binary per
	// value cost more than the SHA-256 blocks do.
	h := sha256.New()
	buf := binary.AppendUvarint(make([]byte, 0, hashChunk+hashSlack), uint64(len(g.Name)))
	buf = append(buf, g.Name...)
	buf = appendVarint(buf, g.NumData)
	buf = binary.AppendUvarint(buf, uint64(len(g.Tasks)))
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if len(buf) >= hashChunk {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = appendVarint(buf, t.Kernel)
		buf = appendVarint(buf, t.I)
		buf = appendVarint(buf, t.J)
		buf = appendVarint(buf, t.K)
		buf = appendVarint(buf, len(t.Accesses))
		for _, a := range t.Accesses {
			buf = appendVarint(buf, int(a.Data))
			mode := byte(a.Mode) << 1
			if a.Idempotent {
				mode |= 1
			}
			buf = append(buf, mode)
		}
	}
	h.Write(append(buf, ms.Canonical()...))
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// hashChunk is how much of the canonical form Hash gathers before handing
// it to the hash, and hashSlack the room left after it for the task that
// crosses it (a longer task grows the buffer).
const (
	hashChunk = 4 << 10
	hashSlack = 1 << 10
)

// appendVarint is binary.AppendVarint, with the one-byte values of most
// fields written in line.
func appendVarint(b []byte, v int) []byte {
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	if u < 0x80 {
		return append(b, byte(u))
	}
	return binary.AppendUvarint(b, u)
}

// Preflight runs the static-analysis passes over a validated submission
// (from Parse or NewSubmission, whose checks it does not repeat) exactly
// as rio.Options.Preflight would before a run: findings of
// Warning or worse reject it with a *analyze.PreflightError. The
// returned report carries every finding either way.
func Preflight(sub *Submission, passes analyze.Passes) (*analyze.Report, error) {
	report := analyze.Graph(sub.Graph, analyze.Config{
		Passes:    passes,
		Workers:   sub.Workers,
		Mapping:   sub.Mapping,
		Owners:    sub.Owners,
		Validated: true,
		InOrder:   true,
	})
	if report.Reject() {
		return report, &analyze.PreflightError{Report: report}
	}
	return report, nil
}

// LoadGraphFile reads a bare graph JSON file (as written by rio-vet
// -emit json) — the CLI half of the shared submission path.
func LoadGraphFile(path string) (*stf.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stf.ReadJSON(f)
}

// Workload builds one of the named generator workloads; the grammar is
// analyze.WorkloadGraph's, shared by rio-vet and rio-serve's
// test harness.
func Workload(name string, size int, seed int64) (*stf.Graph, error) {
	return analyze.WorkloadGraph(name, size, seed)
}

// BuildMapping resolves a CLI -mapping spec string for g over workers
// (the parametric grammar of MappingSpec.Spec).
func BuildMapping(spec string, g *stf.Graph, workers int) (stf.Mapping, error) {
	return (&MappingSpec{Spec: spec}).Build(g, workers)
}
