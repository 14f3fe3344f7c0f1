// Command rio-vet is the preflight static analyzer of the runtime: it
// records a task flow (no task body runs) and vets it with the pass
// pipeline of internal/analyze — access lint, mapping analysis,
// determinism lint and bounded spec conformance — reporting findings
// with stable codes and severities.
//
// With -verify, the flow is additionally compiled (pruned and unpruned)
// for the given mapping and worker count, and the streams are certified
// by the translation validator (internal/verify): coverage, program
// order, ownership, pruning soundness and the static happens-before
// certificate, reported as RIO-V00x findings.
//
//	rio-vet -workload lu -size 4 -workers 4
//	rio-vet -workload wavefront -size 8 -workers 4 -mapping single:0
//	rio-vet -graph flow.json -workers 8 -json
//	rio-vet -workload cholesky -size 4 -verify
//	rio-vet -workload nondet
//
// With -emit the flow is printed instead of vetted: structural statistics,
// mapping load-balance, pruning effectiveness and the flow's content
// identity (stats), or the flow itself as JSON or Graphviz DOT.
//
//	rio-vet -workload lu -size 6 -workers 4 -mapping owner -emit stats
//	rio-vet -workload random -size 200 -emit json    # JSON on stdout
//	rio-vet -workload gemm -size 3 -emit dot         # DOT on stdout
//
// The JSON is the wire format of the rio-serve service: POST it to
// /v1/flows verbatim. Workloads and mappings use the shared grammar of
// internal/server/ingest (the one the server accepts), so the stats name
// the content hash the server would assign the flow.
//
// The exit status is 0 when the flow is clean, 1 when findings at or
// above -fail-on were reported, and 2 on usage errors. With -json the
// report is machine-readable; the same analysis runs inside the library
// via rio.Options.Preflight and rio.Verify.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rio/internal/analyze"
	"rio/internal/sched"
	"rio/internal/server/ingest"
	"rio/internal/stf"
	"rio/internal/verify"
)

func main() {
	reject, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rio-vet:", err)
		os.Exit(2)
	}
	if reject {
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (reject bool, err error) {
	fs := flag.NewFlagSet("rio-vet", flag.ContinueOnError)
	workload := fs.String("workload", "lu", "task flow to vet: lu | cholesky | gemm | wavefront | chain | independent | random | tree | forkjoin | nondet (a nondeterminism demo)")
	size := fs.Int("size", 3, "workload size (tiles / grid side / task count)")
	seed := fs.Int64("seed", 1, "seed of the random workload")
	graphFile := fs.String("graph", "", "vet a task flow from a JSON file (as written by -emit json) instead of a named workload")
	workers := fs.Int("workers", 4, "worker count the flow will run with")
	mapSpec := fs.String("mapping", "cyclic", "static mapping: cyclic | block | blockcyclic:B | single:W | owner (owner2d)")
	passSpec := fs.String("passes", "all", "comma-separated passes: access,mapping,determinism,spec (or all)")
	replays := fs.Int("replays", analyze.DefaultReplays, "record-mode replays of the determinism lint")
	specTasks := fs.Int("spec-tasks", analyze.DefaultSpecTaskLimit, "task-count bound of the spec-conformance pass")
	doVerify := fs.Bool("verify", false, "compile the flow (pruned and unpruned) and certify the streams against the graph (translation validation, RIO-V00x findings)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	emitKind := fs.String("emit", "", "print the flow instead of vetting it: stats | json (the rio-serve wire format) | dot")
	failOn := fs.String("fail-on", "warning", "lowest severity that makes the exit status 1: info | warning | error")
	minShow := fs.String("show", "info", "lowest severity printed in the human report")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	failSev, err := analyze.ParseSeverity(*failOn)
	if err != nil {
		return false, err
	}
	showSev, err := analyze.ParseSeverity(*minShow)
	if err != nil {
		return false, err
	}
	passes, err := parsePasses(*passSpec)
	if err != nil {
		return false, err
	}

	// Graph loading, mapping resolution and instance validation go
	// through internal/server/ingest — the same path a rio-serve
	// submission takes, so a flow this tool vets clean is accepted by
	// the server byte-for-byte and vice versa.
	var (
		g       *stf.Graph
		numData int
		prog    stf.Program
		mapping stf.Mapping
	)
	switch {
	case *graphFile != "":
		g, err = ingest.LoadGraphFile(*graphFile)
		if err != nil {
			return false, err
		}
	case *workload == "nondet":
		numData, prog = analyze.NondetDemo(1)
	default:
		g, err = ingest.Workload(*workload, *size, *seed)
		if err != nil {
			return false, err
		}
	}
	if g != nil {
		numData = g.NumData
		prog = stf.Replay(g, nil)
	}
	if *emitKind != "" {
		if g == nil {
			return false, fmt.Errorf("-emit needs a recorded graph (workload %q records none)", *workload)
		}
		return false, emit(out, *emitKind, g, *mapSpec, *workers)
	}
	// The mapping resolves through the wire-format grammar only: strict
	// instance validation (out-of-range mappings and the like) stays the
	// mapping pass's job, reported as RIO-M00x findings with exit 1 —
	// not a usage error — so seeded defects vet as defects.
	if mapping, err = ingest.BuildMapping(*mapSpec, g, *workers); err != nil {
		return false, err
	}
	cfg := analyze.Config{
		Passes:        passes,
		Workers:       *workers,
		Mapping:       mapping,
		InOrder:       true,
		Replays:       *replays,
		SpecTaskLimit: *specTasks,
	}
	report, _ := analyze.Program(numData, prog, cfg)

	if *doVerify {
		if g == nil {
			return false, fmt.Errorf("-verify needs a recorded graph to certify against (workload %q records none)", *workload)
		}
		for _, prune := range []bool{false, true} {
			var rel [][]bool
			if prune {
				rel = sched.Relevant(g, mapping, *workers)
			}
			// Both lowerings: what an engine runs unarmed (uncontended
			// data elided) and with work stealing armed (canonical).
			for _, lowering := range []func(*stf.Graph, stf.Mapping, int, [][]bool) (*stf.CompiledProgram, error){
				stf.Compile, stf.CompileCanonical,
			} {
				cp, err := lowering(g, mapping, *workers, rel)
				if err != nil {
					return false, err
				}
				vrep := verify.Certify(g, cp, verify.Config{Mapping: mapping})
				report.Add(vrep.Findings...)
			}
		}
		report.Finish()
	}

	if *jsonOut {
		if err := report.WriteJSON(out); err != nil {
			return false, err
		}
	} else if err := report.WriteText(out, showSev); err != nil {
		return false, err
	}
	return report.CountAtLeast(failSev) > 0, nil
}

// emit prints the flow itself (-emit). The stats validate the (graph,
// workers, mapping) instance and derive its content identity through the
// exact path a server submission takes.
func emit(out io.Writer, kind string, g *stf.Graph, mapSpec string, workers int) error {
	switch kind {
	case "dot":
		return g.WriteDOT(out)
	case "json":
		return g.WriteJSON(out)
	case "stats":
	default:
		return fmt.Errorf("unknown -emit %q (want stats|json|dot)", kind)
	}
	ms := &ingest.MappingSpec{Spec: mapSpec}
	sub, err := ingest.NewSubmission(g, ms, workers)
	if err != nil {
		return err
	}
	s := g.Summarize()
	fmt.Fprintf(out, "workload   %s\n", s.Name)
	fmt.Fprintf(out, "tasks      %d\n", s.Tasks)
	fmt.Fprintf(out, "data       %d\n", s.NumData)
	fmt.Fprintf(out, "edges      %d (%.2f deps/task)\n", s.Edges, s.AvgDeps)
	fmt.Fprintf(out, "depth      %d (critical path in tasks)\n", s.Depth)
	fmt.Fprintf(out, "max width  %d (peak available parallelism)\n", s.MaxWidth)
	fmt.Fprintf(out, "flow id    %s (rio-serve content hash under mapping %s)\n", sub.Hash, ms.Canonical())

	m := sub.Mapping
	fmt.Fprintf(out, "\nmapping %s over %d workers\n", mapSpec, workers)
	fmt.Fprintf(out, "load histogram: %v\n", sched.Histogram(g, m, workers))
	rel := sched.Relevant(g, m, workers)
	fmt.Fprintf(out, "pruning: %.1f%% of per-worker bookkeeping removable (§3.5)\n",
		100*sched.PruneRatio(rel))
	return emitElision(out, g, m, workers)
}

// emitElision prints how much of the flow's protocol traffic is on
// uncontended data — data no two workers conflict on, which the stream
// compiler lowers to nothing (an engine with work stealing armed keeps the
// canonical form).
func emitElision(out io.Writer, g *stf.Graph, m stf.Mapping, workers int) error {
	cp, err := stf.Compile(g, m, workers, nil)
	if err != nil {
		return err
	}
	canon := cp.Canonical()
	var accesses, private, data, privateData int
	used := make([]bool, g.NumData)
	for i := range g.Tasks {
		for _, a := range g.Tasks[i].Accesses {
			accesses++
			elided := cp.Elided != nil && cp.Elided[a.Data]
			if elided {
				private++
			}
			if !used[a.Data] {
				used[a.Data] = true
				data++
				if elided {
					privateData++
				}
			}
		}
	}
	share := 0.0
	if accesses > 0 {
		share = 100 * float64(private) / float64(accesses)
	}
	fmt.Fprintf(out, "elision: %.1f%% of accesses (%d of %d) are to uncontended data (%d of %d accessed objects)\n",
		share, private, accesses, privateData, data)
	for w := range cp.Streams {
		fmt.Fprintf(out, "  worker %d: %d micro-ops canonical, %d emitted, %d bytes stored\n",
			w, stf.StreamOps(canon.Streams[w]), stf.StreamOps(cp.Streams[w]), stf.StreamBytes(cp.Streams[w]))
	}
	return nil
}

// parsePasses parses the -passes flag.
func parsePasses(s string) (analyze.Passes, error) {
	var p analyze.Passes
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "all":
			p |= analyze.PassAll
		case "access":
			p |= analyze.PassAccess
		case "mapping":
			p |= analyze.PassMapping
		case "determinism":
			p |= analyze.PassDeterminism
		case "spec":
			p |= analyze.PassSpec
		case "":
		default:
			return 0, fmt.Errorf("unknown pass %q (want access|mapping|determinism|spec|all)", name)
		}
	}
	if p == 0 {
		return 0, fmt.Errorf("no passes selected")
	}
	return p, nil
}
