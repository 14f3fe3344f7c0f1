package spec

import "math/rand"

// Monte-Carlo checking: where exhaustive enumeration explodes (the paper's
// TLC run on the 3×3 LU instance took 22 h for STF and did not finish in
// 48 h for Run-In-Order), random-walk sampling still gives probabilistic
// confidence: each run draws a uniformly random enabled transition until
// termination, checking the same invariants (data-race freedom, per-step
// STF readiness, progress) along the trace.

// SampleSTF performs runs random executions of the STF model. Generated
// counts transitions taken across all runs; Distinct counts distinct
// states visited. Depth reports the longest trace.
func (m *Model) SampleSTF(runs int, seed int64) *Result {
	res := &Result{}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[stfState]struct{})
	var buf []stfState
	for r := 0; r < runs; r++ {
		s := m.stfInit()
		steps := 0
		for {
			if _, ok := seen[s]; !ok {
				seen[s] = struct{}{}
			}
			activeBits, race := m.activeBits(&s.active)
			if race {
				res.violate("STF(sample): data race in state pending=%#x active=%v", s.pending, s.active)
			}
			if s.pending == 0 && activeBits == 0 {
				break // terminated
			}
			buf = m.stfSuccessors(s, buf[:0])
			if len(buf) == 0 {
				res.violate("STF(sample): deadlock in state pending=%#x active=%v", s.pending, s.active)
				break
			}
			s = buf[rng.Intn(len(buf))]
			steps++
			res.Generated++
		}
		if steps > res.Depth {
			res.Depth = steps
		}
	}
	res.Distinct = int64(len(seen))
	return res
}

// SampleRIO performs runs random executions of the Run-In-Order model,
// verifying data-race freedom, progress, and the per-step refinement
// condition (every executed task is ready under STF semantics).
func (m *Model) SampleRIO(runs int, seed int64, opts RIOOptions) *Result {
	res := &Result{}
	if m.mapping == nil {
		res.violate("RIO(sample): model has no mapping")
		return res
	}
	rel := m.rioNext(opts)
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[rioState]struct{})
	var buf []rioState
	for r := 0; r < runs; r++ {
		s := m.rioInit()
		steps := 0
		for {
			if _, ok := seen[s]; !ok {
				seen[s] = struct{}{}
			}
			activeBits, race := m.activeBits(&s.active)
			if race {
				res.violate("RIO(sample): data race in state pos=%v active=%v", s.pos, s.active)
			}
			terminated := m.rioTerminated(s)
			if activeBits == 0 && terminated == m.all {
				break
			}
			buf = rel.successors(s, terminated, buf[:0], res, "RIO(sample)")
			if len(buf) == 0 {
				res.violate("RIO(sample): deadlock in state pos=%v active=%v", s.pos, s.active)
				break
			}
			s = buf[rng.Intn(len(buf))]
			steps++
			res.Generated++
		}
		if steps > res.Depth {
			res.Depth = steps
		}
	}
	res.Distinct = int64(len(seen))
	return res
}
