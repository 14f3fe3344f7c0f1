// Package analyze is the preflight static analyzer of the runtime: it
// records an STF program once (record mode, no task body runs) and runs a
// pipeline of verification passes over the extracted task flow, reporting
// findings *before* any worker starts.
//
// The passes certify, statically, the properties the engines otherwise
// only surface at runtime as stalls, DivergenceErrors or silently lost
// parallelism:
//
//   - access lint (access.go): structural well-formedness of the access
//     declarations plus data-flow hygiene — reads of never-written data,
//     dead write-after-write, never-touched data objects;
//   - mapping analysis (mapping.go): out-of-range or unused workers, load
//     imbalance, and an in-order feasibility check comparing the
//     dependency critical path against the makespan lower bound the given
//     TaskID→WorkerID mapping can achieve under per-worker in-order
//     execution (mapping-induced serialization, specific to the RIO
//     model);
//   - determinism lint (determinism.go): K independent record-mode
//     replays diffed structurally, localizing the first diverging task —
//     the static complement of the engine's runtime divergence guard;
//   - spec conformance (conformance.go): bounded exploration of small
//     instances against internal/spec's formal model, certifying that the
//     wait conditions imply sequential consistency for this exact flow
//     and mapping.
//
// The same pipeline backs three surfaces: rio.Options.Preflight (run
// before every Run), the cmd/rio-vet CLI (human and JSON reports), and
// rio-serve's submit-time preflight; instance.go's workload, mapping and
// validation plumbing is shared by rio-vet and rio-serve through the
// server's ingest.
package analyze

import (
	"rio/internal/sched"
	"rio/internal/stf"
)

// Passes selects which analysis passes run; it is a bitmask so callers
// can compose exactly the checks they want.
type Passes uint

const (
	// PassAccess runs the access lint (structural findings are always
	// reported regardless of the selection; this adds the data-flow
	// hygiene checks).
	PassAccess Passes = 1 << iota
	// PassMapping runs the mapping analysis (requires Config.Mapping).
	PassMapping
	// PassDeterminism replays the program Config.Replays times in record
	// mode and diffs the replays structurally.
	PassDeterminism
	// PassSpec model-checks small instances against internal/spec.
	PassSpec

	// PassAll selects every pass.
	PassAll = PassAccess | PassMapping | PassDeterminism | PassSpec
)

// Default bounds of the configurable passes.
const (
	// DefaultReplays is the record-mode replay count of the determinism
	// lint.
	DefaultReplays = 3
	// DefaultSpecTaskLimit bounds the task count of instances fed to the
	// exhaustive model checker (state explosion beyond it).
	DefaultSpecTaskLimit = 12
	// DefaultSpecWorkerLimit bounds the worker count of model-checked
	// instances.
	DefaultSpecWorkerLimit = 3
	// DefaultImbalanceFactor is the max/mean per-worker load ratio above
	// which the mapping analysis reports an imbalance.
	DefaultImbalanceFactor = 2.0
	// DefaultSerializationFactor is the mapped-makespan inflation over
	// the ideal lower bound above which the mapping analysis reports
	// mapping-induced serialization.
	DefaultSerializationFactor = 1.5
)

// Config parameterizes an analysis run.
type Config struct {
	// Passes selects the passes to run (PassAll when zero would be
	// surprising for a bitmask, so zero means "structural checks only";
	// use PassAll explicitly).
	Passes Passes
	// Workers is the worker count the program will run with; used by the
	// mapping and spec passes.
	Workers int
	// Mapping is the static mapping to analyze (nil skips the mapping
	// pass and makes the spec pass fall back to a cyclic mapping).
	Mapping stf.Mapping
	// Owners, when set, is Mapping resolved over the flow's tasks
	// (Owners[i] = Mapping(i)), which the mapping pass then reads instead
	// of calling Mapping.
	Owners []stf.WorkerID
	// Validated declares that the flow passed stf.Graph.Validate, so
	// Graph skips its structural scan.
	Validated bool
	// InOrder enables the in-order feasibility check of the mapping pass
	// (the per-worker replay chain only constrains the RIO model).
	InOrder bool
	// Replays is the determinism lint's record count (DefaultReplays
	// when <= 1).
	Replays int
	// SpecTaskLimit and SpecWorkerLimit bound the spec pass
	// (defaults apply when <= 0).
	SpecTaskLimit   int
	SpecWorkerLimit int
	// ImbalanceFactor and SerializationFactor tune the mapping pass
	// thresholds (defaults apply when <= 0).
	ImbalanceFactor     float64
	SerializationFactor float64
}

func (c *Config) replays() int {
	if c.Replays <= 1 {
		return DefaultReplays
	}
	return c.Replays
}

func (c *Config) specTaskLimit() int {
	if c.SpecTaskLimit <= 0 {
		return DefaultSpecTaskLimit
	}
	return c.SpecTaskLimit
}

func (c *Config) specWorkerLimit() int {
	if c.SpecWorkerLimit <= 0 {
		return DefaultSpecWorkerLimit
	}
	return c.SpecWorkerLimit
}

func (c *Config) imbalanceFactor() float64 {
	if c.ImbalanceFactor <= 0 {
		return DefaultImbalanceFactor
	}
	return c.ImbalanceFactor
}

func (c *Config) serializationFactor() float64 {
	if c.SerializationFactor <= 0 {
		return DefaultSerializationFactor
	}
	return c.SerializationFactor
}

// Program records prog once (plus Config.Replays-1 more times when the
// determinism lint is selected) and runs the selected passes. No task
// body executes. The returned graph is the sanitized recorded flow
// (structurally invalid accesses dropped) and may be nil when recording
// itself failed (e.g. the program panicked in record mode).
func Program(numData int, prog stf.Program, cfg Config) (*Report, *stf.Graph) {
	rep := &Report{NumData: numData}
	rec := record(numData, prog)
	rep.add(rec.findings...)
	rep.Tasks = len(rec.g.Tasks)
	if rec.panicked {
		return rep.finish(), nil
	}
	if cfg.Passes&PassDeterminism != 0 {
		determinismPass(rep, numData, prog, rec, cfg.replays())
	}
	g := sanitizeGraph(rec.g)
	graphPasses(rep, g, cfg)
	return rep.finish(), g
}

// Graph runs the selected passes over an already-recorded task flow.
// Unlike stf.Graph.Validate, structural defects are reported as findings
// rather than aborting the analysis.
func Graph(g *stf.Graph, cfg Config) *Report {
	rep := &Report{NumData: g.NumData, Tasks: len(g.Tasks)}
	if !cfg.Validated && !structuralScan(rep, g) {
		g = sanitizeGraph(g)
	}
	graphPasses(rep, g, cfg)
	return rep.finish()
}

// graphPasses runs the graph-level passes (access, mapping, spec) on a
// sanitized (structurally valid) flow. The access lint and the mapping
// pass's feasibility check read the flow's accesses in one walk.
func graphPasses(rep *Report, g *stf.Graph, cfg Config) {
	var lint *accessLint
	if cfg.Passes&PassAccess != 0 {
		lint = newAccessLint(rep, g.NumData)
	}
	var owners, chains []stf.WorkerID
	if cfg.Passes&PassMapping != 0 && cfg.Mapping != nil {
		owners = cfg.Owners
		if owners == nil {
			owners = sched.Owners(g, cfg.Mapping)
		}
		// In-order feasibility is checked for more than one task over more
		// than one worker, every task mapped in range: then the walk
		// follows the ownership chains.
		if cfg.InOrder && cfg.Workers > 1 && len(g.Tasks) > 1 && sched.ValidateOwners(owners, cfg.Workers) == nil {
			chains = owners
		}
	}
	var cp, span int
	if lint != nil || chains != nil {
		cp, span = walk(g, lint, chains, cfg.Workers)
	}
	if lint != nil {
		lint.finish()
	}
	if owners != nil {
		mappingPass(rep, g, cfg, owners)
	}
	if chains != nil {
		reportSerialization(rep, g, chains, cfg.Workers, cfg.serializationFactor(), cp, span)
	}
	if cfg.Passes&PassSpec != 0 {
		specPass(rep, g, cfg)
	}
}
