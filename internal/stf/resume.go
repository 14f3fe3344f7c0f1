package stf

// Checkpoint resume for compiled replay: skipping the completed tasks of a
// Checkpoint is literal instruction-stream pruning — the same mechanism as
// the paper's §3.5 task pruning, applied to the frontier of an interrupted
// run instead of a static relevance analysis. Because the checkpoint is
// dependency-closed and every worker drops exactly the same task set, the
// pruned streams still replay a consistent flow: a surviving task's get_*
// waits only ever reference terminations that either survive too or were
// already published (in data memory) by the previous run.

// PruneCompleted returns a copy of cp with every instruction belonging to
// a task in c's completed set removed from every stream, and per-stream
// stats adjusted: skipped owned tasks move from Executed to Skipped,
// skipped foreign tasks leave Declared. cp itself is never mutated (it may
// be cached and shared); when the checkpoint is empty cp is returned
// as-is.
//
// The checkpoint must come from a run of the same flow cp was compiled
// from (same graph, any engine). Completed IDs beyond cp's task table, or
// of tasks no stream executes (an earlier checkpoint took them), are
// ignored.
//
// One accounting nuance: a foreign task may leave no micro-ops in a stream
// that still counts it as Declared — it has no accesses, or all of them are
// to elided data. Without §3.5 pruning every foreign task is charged to
// every other worker, so the count is exact. When cp was itself
// §3.5-pruned the compiler's relevance decision for such a task is no
// longer recoverable and its Declared charge is left in place — a
// documented over-count of at most the completed tasks without micro-ops,
// affecting statistics only, never synchronization.
func PruneCompleted(cp *CompiledProgram, c *Checkpoint) *CompiledProgram {
	if c == nil || len(c.Completed) == 0 {
		return cp
	}
	done := make([]bool, len(cp.Tasks))
	for _, id := range c.Completed {
		if id >= 0 && int(id) < len(done) {
			done[id] = true
		}
	}
	out := &CompiledProgram{
		Name:    cp.Name,
		NumData: cp.NumData,
		Workers: cp.Workers,
		Tasks:   cp.Tasks,
		Streams: make([][]Word, cp.Workers),
		Stats:   append([]StreamStats(nil), cp.Stats...),
		Pruned:  cp.Pruned,
		Elided:  cp.Elided,
		// Dropping a task's micro-ops adds no data micro-op and no
		// reduction.
		noDataOps:    cp.noDataOps,
		noReductions: cp.noReductions,
	}
	for w, old := range cp.Streams {
		st := &out.Stats[w]
		ns := appender{words: make([]Word, 0, len(old))}
		// A task's instructions are contiguous in its stream (Compile emits
		// task by task); group tracks the dropped group being skipped over.
		group := int32(-1)
		for in := range Decode(old) {
			if !done[in.Task] {
				ns.append(in)
				continue
			}
			switch {
			case in.Op == OpExec:
				st.Executed--
				st.Skipped++
				for v := range out.Stats {
					if !cp.Pruned && v != w {
						out.Stats[v].Declared--
					}
				}
			case cp.Pruned && in.Task != group && in.Op <= OpDeclareRed:
				// The first micro-op of a foreign group (declares are the
				// lowest opcodes): this stream found the task relevant and
				// charged it.
				st.Declared--
			}
			group = in.Task
		}
		out.Streams[w] = ns.words
	}
	return out
}
