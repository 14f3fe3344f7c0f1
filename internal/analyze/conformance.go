package analyze

import (
	"rio/internal/sched"
	"rio/internal/spec"
	"rio/internal/stf"
)

// specPass certifies small instances against the formal model of
// internal/spec: exhaustive exploration of every interleaving checks
// data-race freedom and termination of the STF module and that the
// Run-In-Order module (this exact flow under this exact mapping) refines
// it — i.e. the decentralized wait conditions imply sequential
// consistency for the instance.
//
// Exhaustive exploration explodes combinatorially, so the pass is
// bounded: instances beyond Config.SpecTaskLimit tasks or
// Config.SpecWorkerLimit workers, and flows using Reduction accesses
// (outside the strict R/W protocol the model covers), are reported as
// skipped (info), not silently certified.
func specPass(rep *Report, g *stf.Graph, cfg Config) {
	n := len(g.Tasks)
	if n == 0 {
		return
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if n > cfg.specTaskLimit() {
		rep.addf(CodeSpecSkipped, Info, NoID, NoID, NoID,
			"model check skipped: %d tasks exceed the bounded-exploration limit %d", n, cfg.specTaskLimit())
		return
	}
	limit := cfg.specWorkerLimit()
	if limit > spec.MaxWorkers {
		limit = spec.MaxWorkers
	}
	if workers > limit {
		rep.addf(CodeSpecSkipped, Info, NoID, NoID, NoID,
			"model check skipped: %d workers exceed the bounded-exploration limit %d", workers, limit)
		return
	}
	for i := range g.Tasks {
		for _, a := range g.Tasks[i].Accesses {
			if a.Mode.Commutes() {
				rep.addf(CodeSpecSkipped, Info, stf.TaskID(i), a.Data, NoID,
					"model check skipped: task %d uses a Reduction access; the formal model covers the strict R/W protocol only", i)
				return
			}
		}
	}
	mapping := cfg.Mapping
	if mapping == nil {
		mapping = sched.Cyclic(workers)
	}
	row, err := spec.CheckPair(g, workers, mapping, 0, 0)
	if err != nil {
		rep.addf(CodeSpecSkipped, Info, NoID, NoID, NoID, "model check skipped: %v", err)
		return
	}
	for _, v := range row.STF.Violations {
		rep.addf(CodeSpecViolation, Error, NoID, NoID, NoID, "STF module: %s", v)
	}
	for _, v := range row.RIO.Violations {
		rep.addf(CodeSpecViolation, Error, NoID, NoID, NoID, "Run-In-Order module: %s", v)
	}
}
