package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rio"
	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

// sameProgram reports how got differs from want, the lowering it must
// equal: streams, elided data, stream counts, pruning and the rest.
func sameProgram(got, want *stf.CompiledProgram) error {
	switch {
	case got.Name != want.Name || got.NumData != want.NumData || got.Workers != want.Workers:
		return fmt.Errorf("header %q/%d/%d, want %q/%d/%d", got.Name, got.NumData, got.Workers, want.Name, want.NumData, want.Workers)
	case len(got.Tasks) != len(want.Tasks) || (len(got.Tasks) > 0 && &got.Tasks[0] != &want.Tasks[0]):
		return fmt.Errorf("task table is not the graph's")
	case !reflect.DeepEqual(got.Streams, want.Streams):
		return fmt.Errorf("streams\n%v\nwant\n%v", got.Streams, want.Streams)
	case !reflect.DeepEqual(got.Elided, want.Elided):
		return fmt.Errorf("elided %v, want %v", got.Elided, want.Elided)
	case !reflect.DeepEqual(got.Stats, want.Stats):
		return fmt.Errorf("stats %v, want %v", got.Stats, want.Stats)
	case got.Pruned != want.Pruned:
		return fmt.Errorf("pruned %v, want %v", got.Pruned, want.Pruned)
	}
	return nil
}

// parityFlows are random flows, reductions among them, and the LU and
// Cholesky flows, and coldBody's.
func parityFlows(t *testing.T) []*stf.Graph {
	rng := rand.New(rand.NewSource(45))
	var flows []*stf.Graph
	for i := 0; i < 60; i++ {
		flows = append(flows, enginetest.RandomGraph(rng, 40, 8), enginetest.RandomGraphWithReductions(rng, 40, 8))
	}
	flows = append(flows, graphs.LU(4), graphs.Cholesky(5), stf.NewGraph("empty", 0))
	sub, err := Parse(bytes.NewReader(coldBody(t)), 2)
	if err != nil {
		t.Fatal(err)
	}
	return append(flows, sub.Graph)
}

// TestOneWorkerLoweringMatchesGeneral: the one-worker program, which is
// lowered with every task on worker 0 and no relevance, contention or
// mapping call, is the one the general lowering makes under the cyclic
// mapping of one worker — through Submission.Compile and through
// rio.Compile's default mapping, pruned and not.
func TestOneWorkerLoweringMatchesGeneral(t *testing.T) {
	for _, g := range parityFlows(t) {
		sub, err := NewSubmission(g, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, prune := range []bool{false, true} {
			var rel [][]bool
			if prune { // one worker owns every task, so every task is relevant to it
				rel = [][]bool{make([]bool, len(g.Tasks))}
				for i := range rel[0] {
					rel[0][i] = true
				}
			}
			want, err := stf.Compile(g, sched.Cyclic(1), 1, rel)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := sub.Compile(1, prune)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameProgram(fast, want); err != nil {
				t.Errorf("%s, %d tasks, prune %v: Submission.Compile(1): %v", g.Name, len(g.Tasks), prune, err)
			}
			public, err := rio.Compile(g, 1, nil, prune)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameProgram(public, want); err != nil {
				t.Errorf("%s, %d tasks, prune %v: rio.Compile(1): %v", g.Name, len(g.Tasks), prune, err)
			}
		}
	}
}

// TestOwnerTableLoweringMatchesCompile: the program at the submission's
// width, lowered through the owner table Parse resolved (or the mapping
// resolved again once the table is dropped), is what rio.Compile returns
// for the same graph, width and mapping, pruned and not.
func TestOwnerTableLoweringMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i, g := range parityFlows(t) {
		p := 2 + i%3
		assign := make([]int, len(g.Tasks))
		for j := range assign {
			assign[j] = rng.Intn(p)
		}
		for _, ms := range []*MappingSpec{nil, {Spec: "block"}, {Spec: "blockcyclic:2"}, {Spec: "owner2d"}, {Assign: assign}} {
			sub, err := NewSubmission(g, ms, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, prune := range []bool{false, true} {
				want, err := rio.Compile(g, p, sub.Mapping, prune)
				if err != nil {
					t.Fatal(err)
				}
				owned, err := sub.Compile(p, prune)
				if err != nil {
					t.Fatal(err)
				}
				dropped := *sub
				dropped.Owners = nil
				resolved, err := dropped.Compile(p, prune)
				if err != nil {
					t.Fatal(err)
				}
				for name, got := range map[string]*stf.CompiledProgram{"owner table": owned, "mapping resolved again": resolved} {
					if err := sameProgram(got, want); err != nil {
						t.Errorf("%s, %d tasks, %s over %d workers, prune %v, %s: %v", g.Name, len(g.Tasks), ms.Canonical(), p, prune, name, err)
					}
				}
			}
		}
		if _, err := (&Submission{Graph: g, Workers: p}).Compile(p+1, false); err == nil {
			t.Errorf("a submission validated for %d workers compiled for %d", p, p+1)
		}
	}
}
