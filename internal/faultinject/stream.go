package faultinject

import (
	"slices"

	"rio/internal/stf"
)

// Compiled-stream mutators: deterministic corruptions of a
// stf.CompiledProgram, one per defect class the internal/verify certifier
// must catch. Each mutator deep-copies the program (the original may be
// cached and shared), picks its mutation site from a caller-supplied
// index (wrapped over the applicable sites, so any non-negative site
// selects one), and reports whether the program offered a site at all.
//
// The classes map one-to-one onto the certifier's codes:
//
//	MutCorruptOpcode  → RIO-V001 (unrecognized micro-op)
//	MutDropExec       → RIO-V002 (a task never executes)
//	MutRetargetExec   → RIO-V003 (execution on the wrong worker)
//	MutReorderGroups  → RIO-V004 (program order broken)
//	MutRetargetData   → RIO-V005 (micro-op points at the wrong data)
//	MutElideDeclares  → RIO-V006 (undominated declare elision)
//	MutDropWait       → RIO-V008 (a dependency wait removed; also V005)
//	MutElideContended → RIO-V009 (a contended data object lowered to nothing)

// StreamMutation enumerates the compiled-stream defect classes.
type StreamMutation int

const (
	MutCorruptOpcode StreamMutation = iota
	MutDropExec
	MutRetargetExec
	MutReorderGroups
	MutRetargetData
	MutElideDeclares
	MutDropWait
	MutElideContended
	numStreamMutations
)

// StreamMutations lists every defect class, for exhaustive sweeps.
func StreamMutations() []StreamMutation {
	out := make([]StreamMutation, numStreamMutations)
	for i := range out {
		out[i] = StreamMutation(i)
	}
	return out
}

// String names the mutation class.
func (m StreamMutation) String() string {
	switch m {
	case MutCorruptOpcode:
		return "corrupt-opcode"
	case MutDropExec:
		return "drop-exec"
	case MutRetargetExec:
		return "retarget-exec"
	case MutReorderGroups:
		return "reorder-groups"
	case MutRetargetData:
		return "retarget-data"
	case MutElideDeclares:
		return "elide-declares"
	case MutDropWait:
		return "drop-wait"
	case MutElideContended:
		return "elide-contended"
	}
	return "unknown-mutation"
}

// MutateStream applies one defect of class m to a deep copy of cp, using
// site to select among the applicable locations. It returns the mutated
// copy and true, or (nil, false) when cp offers no site for the class
// (e.g. retargeting data in a single-data program).
func MutateStream(cp *stf.CompiledProgram, m StreamMutation, site int) (*stf.CompiledProgram, bool) {
	if site < 0 {
		site = -site
	}
	switch m {
	case MutCorruptOpcode:
		return corruptOpcode(cp, site)
	case MutDropExec:
		return dropInstr(cp, site, func(in stf.Instr) bool { return in.Op == stf.OpExec })
	case MutRetargetExec:
		return retargetExec(cp, site)
	case MutReorderGroups:
		return reorderGroups(cp, site)
	case MutRetargetData:
		return retargetData(cp, site)
	case MutElideDeclares:
		return elideDeclares(cp, site)
	case MutDropWait:
		return dropInstr(cp, site, func(in stf.Instr) bool {
			return in.Op == stf.OpGetRead || in.Op == stf.OpGetWrite || in.Op == stf.OpGetRed
		})
	case MutElideContended:
		return elideContended(cp, site)
	}
	return nil, false
}

// CloneProgram deep-copies a compiled program so mutations never reach
// the (possibly cached) original.
func CloneProgram(cp *stf.CompiledProgram) *stf.CompiledProgram {
	out := &stf.CompiledProgram{
		Name:    cp.Name,
		NumData: cp.NumData,
		Workers: cp.Workers,
		Tasks:   cp.Tasks,
		Streams: make([][]stf.Word, len(cp.Streams)),
		Stats:   append([]stf.StreamStats(nil), cp.Stats...),
		Pruned:  cp.Pruned,
		Elided:  append([]bool(nil), cp.Elided...),
	}
	for w, s := range cp.Streams {
		out.Streams[w] = append([]stf.Word(nil), s...)
	}
	return out
}

// decoded returns fresh copies of cp's streams in the decoded view the
// mutators edit.
func decoded(cp *stf.CompiledProgram) [][]stf.Instr {
	out := make([][]stf.Instr, len(cp.Streams))
	for w, s := range cp.Streams {
		out[w] = slices.Collect(stf.Decode(s))
	}
	return out
}

// withStreams returns a deep copy of cp whose streams are the encoding of
// streams.
func withStreams(cp *stf.CompiledProgram, streams [][]stf.Instr) *stf.CompiledProgram {
	out := CloneProgram(cp)
	for w, s := range streams {
		out.Streams[w] = stf.Encode(s)
	}
	return out
}

// corruptOpcode overwrites the site-th micro-op's opcode with one no
// interpreter recognizes: the last of the sixteen a word can hold.
func corruptOpcode(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	ds := decoded(cp)
	n := 0
	for _, s := range ds {
		n += len(s)
	}
	if n == 0 {
		return nil, false
	}
	site %= n
	for w := range ds {
		if site < len(ds[w]) {
			ds[w][site].Op = stf.OpCode(15)
			return withStreams(cp, ds), true
		}
		site -= len(ds[w])
	}
	return nil, false
}

// dropInstr removes the site-th micro-op satisfying pred.
func dropInstr(cp *stf.CompiledProgram, site int, pred func(stf.Instr) bool) (*stf.CompiledProgram, bool) {
	ds := decoded(cp)
	n := 0
	for _, s := range ds {
		for _, in := range s {
			if pred(in) {
				n++
			}
		}
	}
	if n == 0 {
		return nil, false
	}
	site %= n
	for w, s := range ds {
		for k, in := range s {
			if !pred(in) {
				continue
			}
			if site == 0 {
				ds[w] = slices.Delete(s, k, k+1)
				return withStreams(cp, ds), true
			}
			site--
		}
	}
	return nil, false
}

// group is one task's micro-ops s[start:end) in worker w's decoded stream.
type group struct{ w, start, end int }

// groups lists the task groups of decoded stream s (worker w) for which
// keep holds.
func groups(w int, s []stf.Instr, keep func(g group, hasExec bool) bool) []group {
	var out []group
	for i := 0; i < len(s); {
		j, hasExec := i, false
		for j < len(s) && s[j].Task == s[i].Task {
			hasExec = hasExec || s[j].Op == stf.OpExec
			j++
		}
		if g := (group{w, i, j}); keep(g, hasExec) {
			out = append(out, g)
		}
		i = j
	}
	return out
}

// retargetExec moves the site-th exec group wholesale into the next
// worker's stream (replacing that worker's declare group for the task, if
// any), so the task runs on a worker the mapping never assigned it to.
// Requires at least two workers.
func retargetExec(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	if cp.Workers < 2 {
		return nil, false
	}
	ds := decoded(cp)
	var execs []group
	for w, s := range ds {
		execs = append(execs, groups(w, s, func(_ group, hasExec bool) bool { return hasExec })...)
	}
	if len(execs) == 0 {
		return nil, false
	}
	g := execs[site%len(execs)]
	src := ds[g.w]
	moved := slices.Clone(src[g.start:g.end])
	id := moved[0].Task
	ds[g.w] = slices.Delete(src, g.start, g.end)
	dst := (g.w + 1) % cp.Workers
	s := ds[dst]
	// Find where the group belongs in the destination's task order, and
	// whether a declare group for the task must give way.
	ins, end := len(s), len(s)
	for _, h := range groups(dst, s, func(group, bool) bool { return true }) {
		if tid := s[h.start].Task; tid >= id {
			ins, end = h.start, h.start
			if tid == id {
				end = h.end
			}
			break
		}
	}
	ds[dst] = slices.Concat(s[:ins], moved, s[end:])
	return withStreams(cp, ds), true
}

// reorderGroups swaps two adjacent task groups in the site-th stream that
// has at least two groups, breaking program order.
func reorderGroups(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	ds := decoded(cp)
	var candidates []int
	for w, s := range ds {
		if len(groups(w, s, func(group, bool) bool { return true })) >= 2 {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return nil, false
	}
	w := candidates[site%len(candidates)]
	gs := groups(w, ds[w], func(group, bool) bool { return true })
	s, first, second := ds[w], gs[0], gs[1]
	ds[w] = slices.Concat(s[second.start:second.end], s[first.start:first.end], s[second.end:])
	return withStreams(cp, ds), true
}

// retargetData points the site-th non-exec micro-op at the next data
// object, so the stream synchronizes on data the task never declared.
// Requires at least two data objects.
func retargetData(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	if cp.NumData < 2 {
		return nil, false
	}
	ds := decoded(cp)
	n := 0
	for _, s := range ds {
		for _, in := range s {
			if in.Op != stf.OpExec {
				n++
			}
		}
	}
	if n == 0 {
		return nil, false
	}
	site %= n
	for w, s := range ds {
		for k := range s {
			if s[k].Op == stf.OpExec {
				continue
			}
			if site == 0 {
				ds[w][k].Data = (s[k].Data + 1) % stf.DataID(cp.NumData)
				return withStreams(cp, ds), true
			}
			site--
		}
	}
	return nil, false
}

// elideDeclares removes a declare-only group whose elision is provably
// unsound: the group contains a declare_write on some data whose next
// appearance in the same stream is a get_* — so no surviving declare
// re-establishes the version before a wait reads the counters. Sites
// without that property (where elision might be dominated, hence legal)
// are never picked; returns false when no unsound site exists.
func elideDeclares(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	ds := decoded(cp)
	var sites []group
	for w, s := range ds {
		sites = append(sites, groups(w, s, func(g group, hasExec bool) bool {
			return !hasExec && unsoundToElide(s, g.start, g.end)
		})...)
	}
	if len(sites) == 0 {
		return nil, false
	}
	g := sites[site%len(sites)]
	ds[g.w] = slices.Delete(ds[g.w], g.start, g.end)
	return withStreams(cp, ds), true
}

// unsoundToElide reports whether dropping the declare group s[start:end)
// must be flagged: some declare_write in it targets a data object whose
// next micro-op in the stream is a wait.
func unsoundToElide(s []stf.Instr, start, end int) bool {
	for k := start; k < end; k++ {
		if s[k].Op != stf.OpDeclareWrite {
			continue
		}
		d := s[k].Data
		for j := end; j < len(s); j++ {
			if s[j].Op == stf.OpExec || s[j].Data != d {
				continue
			}
			if s[j].Op == stf.OpGetRead || s[j].Op == stf.OpGetWrite || s[j].Op == stf.OpGetRed {
				return true
			}
			break // a surviving declare/terminate re-establishes the version
		}
	}
	return false
}

// elideContended removes every micro-op on one contended data object from
// every stream and adds the object to the program's elision set — what a
// compiler that misclassified it would emit. The objects it picks from are
// those written by one worker's task and accessed by another's (executors
// read off the streams' execs). Returns false when there is none (a
// single-worker program, or one whose written data are all private).
func elideContended(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	ds := decoded(cp)
	executor := make([]int, len(cp.Tasks))
	for w, s := range ds {
		for _, in := range s {
			if in.Op == stf.OpExec {
				executor[in.Task] = w + 1 // 0: no stream executes the task
			}
		}
	}
	const several = -1
	users := make([]int, cp.NumData) // 0 none, w+1 one worker, several
	written := make([]bool, cp.NumData)
	for i := range cp.Tasks {
		if executor[i] == 0 {
			continue
		}
		for _, a := range cp.Tasks[i].Accesses {
			switch users[a.Data] {
			case 0:
				users[a.Data] = executor[i]
			case executor[i]:
			default:
				users[a.Data] = several
			}
			written[a.Data] = written[a.Data] || a.Mode.Writes()
		}
	}
	var sites []stf.DataID
	for d := range users {
		if users[d] == several && written[d] {
			sites = append(sites, stf.DataID(d))
		}
	}
	if len(sites) == 0 {
		return nil, false
	}
	d := sites[site%len(sites)]
	for w, s := range ds {
		ds[w] = slices.DeleteFunc(s, func(in stf.Instr) bool { return in.Op != stf.OpExec && in.Data == d })
	}
	out := withStreams(cp, ds)
	if out.Elided == nil {
		out.Elided = make([]bool, cp.NumData)
	}
	out.Elided[d] = true
	return out, true
}
