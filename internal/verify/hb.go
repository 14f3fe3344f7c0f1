package verify

import (
	"rio/internal/analyze"
	"rio/internal/stf"
)

// Static happens-before certification (RIO-V008): build, from the
// streams' certified waits alone, a vector-clock order over task
// executions, then require every conflicting access pair of the
// flow to be covered by it.
//
// Construction: each worker's exec groups are numbered by stream
// position (the worker executes them in that order — program-order
// edges), and every wait that survived the previous passes (present in
// the owner's stream with counters matching the reference) contributes
// edges from the terminations it provably blocks on: the last write, the
// reads since it, the reductions the mode's condition counts. A task's
// vector clock is the join of its program-order predecessor's and its
// wait edges' clocks, with its own stream position entered last.
//
// Soundness of the edges is exactly the protocol argument of §3.4: a
// matched wait's equality condition cannot be satisfied before those
// terminations' atomic publications, each of which follows its task's
// execution on the owning worker. Waits that are missing or mismatched
// contribute nothing, so anything they were supposed to order shows up
// as an uncovered conflict.
//
// Coverage: for every access, the conflict frontier recorded by the
// reference walk (W→W, W→R, R→W and reduction fences; red-red pairs
// commute and are exempt) must satisfy VC(later)[worker(earlier)] >=
// pos(earlier). Vector-clock order is transitive, so frontier coverage
// extends to all conflicting pairs.
func (c *certifier) certifyHB() {
	if c.counts[analyze.CodeVerifyOrder] > 0 {
		// Without intact program order stream positions don't define a
		// usable clock; the defects are already reported.
		return
	}
	n := len(c.g.Tasks)
	workers := c.cp.Workers
	vc := make([]int32, n*workers)
	known := make([]bool, n)
	prevOnWorker := make([]stf.TaskID, workers)
	for i := range prevOnWorker {
		prevOnWorker[i] = stf.NoTask
	}
	for i := range c.g.Tasks {
		if c.execCount[i] != 1 {
			continue
		}
		pos := c.execAt[i]
		row := vc[i*workers : (i+1)*workers]
		if p := prevOnWorker[pos.worker]; p != stf.NoTask {
			joinRow(row, vc[int(p)*workers:(int(p)+1)*workers])
		}
		prevOnWorker[pos.worker] = stf.TaskID(i)
		for ai := range c.g.Tasks[i].Accesses {
			if c.edgeOK[i] == nil || !c.edgeOK[i][ai] {
				continue
			}
			for _, u := range c.pre[i][ai].waitsOn {
				if known[u] {
					joinRow(row, vc[int(u)*workers:(int(u)+1)*workers])
				}
			}
		}
		row[pos.worker] = pos.idx
		known[i] = true
	}
	// One finding per data object: a single missing wait leaves every
	// later conflicting pair on that data uncovered too. Accesses to elided
	// data have no waits, only program order — which covers every conflict
	// on an uncontended object; a contended one is already RIO-V009.
	reported := make([]bool, c.g.NumData)
	copy(reported, c.contended)
	for i := range c.g.Tasks {
		if !known[i] {
			continue
		}
		for ai, a := range c.g.Tasks[i].Accesses {
			if reported[a.Data] {
				continue
			}
			for _, u := range c.pre[i][ai].conflicts {
				if !known[u] {
					continue
				}
				pu := c.execAt[u]
				if vc[i*workers+int(pu.worker)] >= pu.idx {
					continue
				}
				reported[a.Data] = true
				c.addf(analyze.CodeVerifyHappensBefore, stf.TaskID(i), a.Data, pu.worker,
					"happens-before violation on data %d: task %d (%s, worker %d) is not ordered after conflicting task %d (worker %d) — no surviving wait certifies the edge",
					a.Data, i, a.Mode, c.execAt[i].worker, u, pu.worker)
				break
			}
		}
	}
}

// joinRow takes the component-wise max of two vector-clock rows into dst.
func joinRow(dst, src []int32) {
	for k := range dst {
		if src[k] > dst[k] {
			dst[k] = src[k]
		}
	}
}
