package verify

import (
	"rio/internal/analyze"
	"rio/internal/stf"
)

// Elision soundness (RIO-V009). A program that lowers a data object to no
// micro-ops leaves its accesses ordered by nothing but each worker's own
// program order. That is enough exactly when every pair of accesses the
// protocol would have ordered — a write against anything, a reduction
// against a read — sits on one worker; then no stream ever waits on the
// object's cell, so nothing the missing terminates would have published is
// read. The check below takes that definition pair kind by pair kind over
// the flow and the mapping, sharing nothing with the compiler's
// own classification.

// ownerSet summarizes which workers own one class of accesses (writes,
// reads or reductions) to one data object: none, exactly w, or several.
type ownerSet struct {
	n int // 0 none, 1 exactly w, 2 several
	w stf.WorkerID
}

func (s *ownerSet) add(w stf.WorkerID) {
	switch {
	case s.n == 0:
		s.n, s.w = 1, w
	case s.n == 1 && s.w != w:
		s.n = 2
	}
}

// crosses reports whether some access of a and some access of b belong to
// different workers.
func crosses(a, b ownerSet) bool {
	return a.n > 0 && b.n > 0 && (a.n > 1 || b.n > 1 || a.w != b.w)
}

// elided reports whether the program claims data object d elided.
func (c *certifier) elided(d stf.DataID) bool {
	return c.cp.Elided != nil && c.cp.Elided[d]
}

// checkElision flags every claimed-elided data object that is contended
// in the flow, once per object.
func (c *certifier) checkElision() {
	if c.cp.Elided == nil {
		return
	}
	type use struct{ writes, reads, reds ownerSet }
	uses := make([]use, c.g.NumData)
	for i := range c.g.Tasks {
		for _, a := range c.g.Tasks[i].Accesses {
			u := &uses[a.Data]
			switch {
			case a.Mode.Writes():
				u.writes.add(c.owners[i])
			case a.Mode.Commutes():
				u.reds.add(c.owners[i])
			default:
				u.reads.add(c.owners[i])
			}
		}
	}
	for d, u := range uses {
		if !c.cp.Elided[d] {
			continue
		}
		var what string
		switch {
		case u.writes.n > 1:
			what = "writes"
		case crosses(u.writes, u.reads):
			what = "a write and a read"
		case crosses(u.writes, u.reds):
			what = "a write and a reduction"
		case crosses(u.reds, u.reads):
			what = "a reduction and a read"
		default:
			continue
		}
		if c.contended == nil {
			c.contended = make([]bool, c.g.NumData)
		}
		c.contended[d] = true
		c.addf(analyze.CodeVerifyContended, analyze.NoID, stf.DataID(d), analyze.NoID,
			"data %d is lowered to no micro-ops but is contended: %s on it belong to tasks of different workers, and nothing in the streams orders them", d, what)
	}
}
