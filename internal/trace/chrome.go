package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"rio/internal/stf"
)

// chromeEvent is the superset of trace-event fields the export uses:
// complete slices ("X"), thread metadata ("M"), counter rows ("C") and flow
// arrows along dependency edges ("s"/"f").
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`            // microseconds
	Dur  int64          `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"` // flow-event binding
	BP   string         `json:"bp,omitempty"` // "e": bind flow end to enclosing slice
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTraceGraph exports the recorded spans in the Chrome trace-event
// format (the JSON array form), loadable in chrome://tracing, Perfetto or
// speedscope, with the recorded graph's structure on top. It emits one
// complete ("X") slice per task span, one row per worker, named by
// kernelName (nil falls back to "kernel <id>"), and
//
//   - thread-name metadata ("M") labeling each worker lane (and the master
//     lane, when anything ran on it);
//   - two counter rows ("C"): "ready" — tasks whose dependencies have all
//     completed but which have not started — and "executed", the cumulative
//     completion count. The ready row makes starvation visible: a deep ready
//     backlog with idle lanes is a mapping problem, an empty ready row is a
//     dependency-chain (pipelining) problem;
//   - one flow arrow ("s" → "f") per dependency edge between recorded
//     spans, so Perfetto draws the graph's edges over the timeline.
//
// Tasks of g that have no recorded span (pruned, skipped, or the run
// aborted) contribute no events; edges touching them are dropped.
func (r *Recorder) WriteChromeTraceGraph(w io.Writer, g *stf.Graph, kernelName func(int) string) error {
	name := kernelName
	if name == nil {
		name = func(k int) string { return fmt.Sprintf("kernel %d", k) }
	}

	type spanAt struct {
		lane int
		span Span
	}
	byTask := make(map[stf.TaskID]spanAt, r.Count())
	events := make([]chromeEvent, 0, 4*r.Count())
	var stolen []spanAt

	for lane, spans := range r.lanes {
		if len(spans) == 0 {
			continue
		}
		label := fmt.Sprintf("worker %d", lane)
		if lane == len(r.lanes)-1 {
			label = "master"
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]any{"name": label},
		})
		for _, s := range spans {
			byTask[s.Task] = spanAt{lane: lane, span: s}
			args := map[string]any{"task": int64(s.Task)}
			cat := "task"
			if s.Stolen {
				// A stolen task's slice lives in the thief's lane; the
				// owner it was claimed from is kept as an arg and drawn
				// as a hand-off arrow below.
				args["stolen_from"] = int64(s.Owner)
				cat = "task,steal"
				stolen = append(stolen, spanAt{lane: lane, span: s})
			}
			events = append(events, chromeEvent{
				Name: name(s.Kernel),
				Cat:  cat,
				Ph:   "X",
				TS:   s.Start.Microseconds(),
				Dur:  (s.End - s.Start).Microseconds(),
				PID:  1,
				TID:  lane,
				Args: args,
			})
		}
	}

	deps := g.Dependencies()

	// Flow arrows: one per dependency edge whose endpoints both ran. The
	// arrow leaves the producer's slice at its end and binds to the
	// consumer's enclosing slice at its start (bp:"e").
	var edge int64
	for id := range g.Tasks {
		to, ok := byTask[stf.TaskID(id)]
		if !ok {
			continue
		}
		for _, d := range deps[id] {
			from, ok := byTask[d]
			if !ok {
				continue
			}
			edge++
			events = append(events,
				chromeEvent{Name: "dep", Cat: "dep", Ph: "s", TS: from.span.End.Microseconds(),
					PID: 1, TID: from.lane, ID: edge},
				chromeEvent{Name: "dep", Cat: "dep", Ph: "f", TS: to.span.Start.Microseconds(),
					PID: 1, TID: to.lane, ID: edge, BP: "e"},
			)
		}
	}

	// Steal hand-off arrows: one per stolen span, leaving the owner's lane
	// at the claim instant and binding to the thief's slice — Perfetto
	// shows at a glance which tasks escaped their static owner.
	for _, sp := range stolen {
		edge++
		events = append(events,
			chromeEvent{Name: "steal", Cat: "steal", Ph: "s", TS: sp.span.Start.Microseconds(),
				PID: 1, TID: int(sp.span.Owner), ID: edge},
			chromeEvent{Name: "steal", Cat: "steal", Ph: "f", TS: sp.span.Start.Microseconds(),
				PID: 1, TID: sp.lane, ID: edge, BP: "e"},
		)
	}

	// Counter rows. A task becomes ready when its last dependency's span
	// ends (immediately, with no dependencies), leaves the ready set when
	// its own span starts, and counts as executed when its span ends.
	type tick struct {
		ts            int64
		ready, execed int64
	}
	var ticks []tick
	for id := range g.Tasks {
		at, ok := byTask[stf.TaskID(id)]
		if !ok {
			continue
		}
		var ready int64
		for _, d := range deps[id] {
			if from, ok := byTask[d]; ok {
				if e := from.span.End.Microseconds(); e > ready {
					ready = e
				}
			}
		}
		ticks = append(ticks,
			tick{ts: ready, ready: +1},
			tick{ts: at.span.Start.Microseconds(), ready: -1},
			tick{ts: at.span.End.Microseconds(), execed: +1},
		)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i].ts < ticks[j].ts })
	var ready, execed int64
	for i, t := range ticks {
		ready += t.ready
		execed += t.execed
		// Coalesce simultaneous ticks into one sample per timestamp.
		if i+1 < len(ticks) && ticks[i+1].ts == t.ts {
			continue
		}
		events = append(events,
			chromeEvent{Name: "ready", Ph: "C", TS: t.ts, PID: 1, TID: 0,
				Args: map[string]any{"tasks": ready}},
			chromeEvent{Name: "executed", Ph: "C", TS: t.ts, PID: 1, TID: 0,
				Args: map[string]any{"tasks": execed}},
		)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
