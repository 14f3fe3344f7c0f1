package faultinject

import "rio/internal/stf"

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
//	MutSplitResume    → RIO-V007 (checkpoint pruning applied unevenly)
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
	MutSplitResume
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
	case MutSplitResume:
		return "split-resume"
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
// (e.g. retargeting data in a single-data program). MutSplitResume needs
// a checkpoint and is not applicable through this driver — use
// SplitResume directly.
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
		Streams: make([][]stf.Instr, len(cp.Streams)),
		Stats:   append([]stf.StreamStats(nil), cp.Stats...),
		Pruned:  cp.Pruned,
		Elided:  append([]bool(nil), cp.Elided...),
	}
	for w, s := range cp.Streams {
		out.Streams[w] = append([]stf.Instr(nil), s...)
	}
	return out
}

// corruptOpcode overwrites the site-th micro-op's opcode with a value no
// interpreter recognizes.
func corruptOpcode(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	n := 0
	for _, s := range cp.Streams {
		n += len(s)
	}
	if n == 0 {
		return nil, false
	}
	site %= n
	out := CloneProgram(cp)
	for w := range out.Streams {
		if site < len(out.Streams[w]) {
			out.Streams[w][site].Op = stf.OpCode(255)
			return out, true
		}
		site -= len(out.Streams[w])
	}
	return nil, false
}

// dropInstr removes the site-th micro-op satisfying pred.
func dropInstr(cp *stf.CompiledProgram, site int, pred func(stf.Instr) bool) (*stf.CompiledProgram, bool) {
	n := 0
	for _, s := range cp.Streams {
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
	out := CloneProgram(cp)
	for w, s := range out.Streams {
		for k, in := range s {
			if !pred(in) {
				continue
			}
			if site == 0 {
				out.Streams[w] = append(s[:k:k], s[k+1:]...)
				return out, true
			}
			site--
		}
	}
	return nil, false
}

// retargetExec moves the site-th exec group wholesale into the next
// worker's stream (replacing that worker's declare group for the task, if
// any), so the task runs on a worker the mapping never assigned it to.
// Requires at least two workers.
func retargetExec(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	if cp.Workers < 2 {
		return nil, false
	}
	type pos struct{ w, start, end int }
	var groups []pos
	for w, s := range cp.Streams {
		for i := 0; i < len(s); {
			id := s[i].Task
			j, hasExec := i, false
			for j < len(s) && s[j].Task == id {
				hasExec = hasExec || s[j].Op == stf.OpExec
				j++
			}
			if hasExec {
				groups = append(groups, pos{w, i, j})
			}
			i = j
		}
	}
	if len(groups) == 0 {
		return nil, false
	}
	g := groups[site%len(groups)]
	out := CloneProgram(cp)
	src := out.Streams[g.w]
	moved := append([]stf.Instr(nil), src[g.start:g.end]...)
	id := moved[0].Task
	out.Streams[g.w] = append(src[:g.start:g.start], src[g.end:]...)
	dst := (g.w + 1) % cp.Workers
	s := out.Streams[dst]
	// Find where the group belongs in the destination's task order, and
	// whether a declare group for the task must give way.
	ins, end := len(s), len(s)
	for i := 0; i < len(s); {
		tid := s[i].Task
		j := i
		for j < len(s) && s[j].Task == tid {
			j++
		}
		if tid >= id {
			ins = i
			end = i
			if tid == id {
				end = j
			}
			break
		}
		i = j
	}
	ns := make([]stf.Instr, 0, len(s)-(end-ins)+len(moved))
	ns = append(ns, s[:ins]...)
	ns = append(ns, moved...)
	ns = append(ns, s[end:]...)
	out.Streams[dst] = ns
	return out, true
}

// reorderGroups swaps two adjacent task groups in the site-th stream that
// has at least two groups, breaking program order.
func reorderGroups(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	var candidates []int
	for w, s := range cp.Streams {
		if groupCount(s) >= 2 {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return nil, false
	}
	w := candidates[site%len(candidates)]
	out := CloneProgram(cp)
	s := out.Streams[w]
	// Bounds of the first two groups.
	firstEnd := 1
	for firstEnd < len(s) && s[firstEnd].Task == s[0].Task {
		firstEnd++
	}
	secondEnd := firstEnd + 1
	for secondEnd < len(s) && s[secondEnd].Task == s[firstEnd].Task {
		secondEnd++
	}
	ns := make([]stf.Instr, 0, len(s))
	ns = append(ns, s[firstEnd:secondEnd]...)
	ns = append(ns, s[:firstEnd]...)
	ns = append(ns, s[secondEnd:]...)
	out.Streams[w] = ns
	return out, true
}

func groupCount(s []stf.Instr) int {
	n := 0
	for i := 0; i < len(s); {
		id := s[i].Task
		for i < len(s) && s[i].Task == id {
			i++
		}
		n++
	}
	return n
}

// retargetData points the site-th non-exec micro-op at the next data
// object, so the stream synchronizes on data the task never declared.
// Requires at least two data objects.
func retargetData(cp *stf.CompiledProgram, site int) (*stf.CompiledProgram, bool) {
	if cp.NumData < 2 {
		return nil, false
	}
	n := 0
	for _, s := range cp.Streams {
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
	out := CloneProgram(cp)
	for w, s := range out.Streams {
		for k := range s {
			if s[k].Op == stf.OpExec {
				continue
			}
			if site == 0 {
				out.Streams[w][k].Data = (s[k].Data + 1) % stf.DataID(cp.NumData)
				return out, true
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
	type pos struct{ w, start, end int }
	var sites []pos
	for w, s := range cp.Streams {
		for i := 0; i < len(s); {
			id := s[i].Task
			j, hasExec := i, false
			for j < len(s) && s[j].Task == id {
				hasExec = hasExec || s[j].Op == stf.OpExec
				j++
			}
			if !hasExec && unsoundToElide(s, i, j) {
				sites = append(sites, pos{w, i, j})
			}
			i = j
		}
	}
	if len(sites) == 0 {
		return nil, false
	}
	g := sites[site%len(sites)]
	out := CloneProgram(cp)
	s := out.Streams[g.w]
	out.Streams[g.w] = append(s[:g.start:g.start], s[g.end:]...)
	return out, true
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
	executor := make([]int, len(cp.Tasks))
	for w, s := range cp.Streams {
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
	out := CloneProgram(cp)
	if out.Elided == nil {
		out.Elided = make([]bool, cp.NumData)
	}
	out.Elided[d] = true
	for w, s := range out.Streams {
		ns := s[:0]
		for _, in := range s {
			if in.Op == stf.OpExec || in.Data != d {
				ns = append(ns, in)
			}
		}
		out.Streams[w] = ns
	}
	return out, true
}

// SplitResume applies checkpoint pruning to exactly one worker's stream,
// leaving every other stream with the completed tasks' micro-ops intact —
// the inconsistent-resume defect (the protocol requires every worker to
// drop the same task set). It picks the site-th worker whose pruned
// stream still leaves the checkpointed tasks visible in some other
// stream; returns false when the checkpoint removes nothing anywhere.
func SplitResume(cp *stf.CompiledProgram, c *stf.Checkpoint, site int) (*stf.CompiledProgram, bool) {
	if c == nil || len(c.Completed) == 0 {
		return nil, false
	}
	pruned := stf.PruneCompleted(cp, c)
	var candidates []int
	for w := range cp.Streams {
		if len(pruned.Streams[w]) == len(cp.Streams[w]) {
			continue // pruning removed nothing here
		}
		for w2, s := range cp.Streams {
			if w2 == w {
				continue
			}
			if len(pruned.Streams[w2]) != len(s) {
				candidates = append(candidates, w)
				break
			}
		}
	}
	if len(candidates) == 0 {
		return nil, false
	}
	w := candidates[site%len(candidates)]
	out := CloneProgram(cp)
	out.Streams[w] = append([]stf.Instr(nil), pruned.Streams[w]...)
	out.Stats[w] = pruned.Stats[w]
	return out, true
}
