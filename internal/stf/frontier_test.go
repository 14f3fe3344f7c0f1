package stf_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"rio/internal/enginetest"
	"rio/internal/stf"
)

// referenceFinish is the longest-path walk over the materialised
// dependency lists: each task finishes dur after its latest predecessor.
func referenceFinish(g *stf.Graph, dur func(stf.TaskID) time.Duration) []time.Duration {
	deps := g.Dependencies()
	finish := make([]time.Duration, len(g.Tasks))
	for i := range g.Tasks {
		var ready time.Duration
		for _, d := range deps[i] {
			ready = max(ready, finish[d])
		}
		finish[i] = ready + dur(stf.TaskID(i))
	}
	return finish
}

// referenceLevels is Levels by its definition: a task's level is one more
// than its deepest direct predecessor's, 0 without predecessors.
func referenceLevels(g *stf.Graph) ([]int, int) {
	deps := g.Dependencies()
	levels := make([]int, len(g.Tasks))
	depth := 0
	for i := range g.Tasks {
		for _, d := range deps[i] {
			levels[i] = max(levels[i], levels[d]+1)
		}
		depth = max(depth, levels[i]+1)
	}
	return levels, depth
}

// TestFrontierMatchesDependencies: the Frontier walk gives every task the
// finish time the walk over Dependencies gives it, on random flows with
// and without reductions, under unit, zero and random durations; Levels
// and CriticalPath, which walk it, agree with their definitions.
func TestFrontierMatchesDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 10000; i++ {
		var g *stf.Graph
		if i%2 == 0 {
			g = enginetest.RandomGraph(rng, 40, 6)
		} else {
			g = enginetest.RandomGraphWithReductions(rng, 40, 5)
		}
		random := make([]time.Duration, len(g.Tasks))
		for j := range random {
			random[j] = time.Duration(rng.Intn(100))
		}
		for name, dur := range map[string]func(stf.TaskID) time.Duration{
			"unit":   func(stf.TaskID) time.Duration { return 1 },
			"zero":   func(stf.TaskID) time.Duration { return 0 },
			"random": func(id stf.TaskID) time.Duration { return random[id] },
		} {
			want := referenceFinish(g, dur)
			f := stf.NewFrontier[time.Duration](g.NumData)
			var critical, work time.Duration
			for j := range g.Tasks {
				task := &g.Tasks[j]
				finish := f.Ready(task) + dur(task.ID)
				if finish != want[j] {
					t.Fatalf("flow %d (%s, %d tasks), %s durations: task %d finishes at %d, Dependencies walk %d",
						i, g.Name, len(g.Tasks), name, j, finish, want[j])
				}
				f.Done(task, finish)
				critical, work = max(critical, finish), work+dur(task.ID)
			}
			if c, w := stf.CriticalPath(g, dur); c != critical || w != work {
				t.Fatalf("flow %d, %s durations: CriticalPath = (%d, %d), want (%d, %d)", i, name, c, w, critical, work)
			}
		}
		levels, depth := g.Levels()
		wantLevels, wantDepth := referenceLevels(g)
		if !slices.Equal(levels, wantLevels) || depth != wantDepth {
			t.Fatalf("flow %d: Levels = %v, %d; definition %v, %d", i, levels, depth, wantLevels, wantDepth)
		}
	}
}
