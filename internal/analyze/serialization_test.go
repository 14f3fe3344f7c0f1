package analyze

// The reference criticalPaths is pinned against: the serialization check
// as it was while it walked the explicit DAG of stf.Graph.Dependencies.
// It lives only here.

import (
	"math/rand"
	"reflect"
	"testing"

	"rio/internal/enginetest"
	"rio/internal/stf"
)

// referenceCriticalPaths computes the dependency critical path and the
// in-order makespan lower bound over the materialised dependency lists.
func referenceCriticalPaths(g *stf.Graph, owners []stf.WorkerID, p int) (cp, span int) {
	deps := g.Dependencies()
	n := len(g.Tasks)
	depth := make([]int, n)  // dependency-only longest path ending at t
	finish := make([]int, n) // dependencies + ownership-chain longest path
	lastOwned := make([]int, p)
	for w := range lastOwned {
		lastOwned[w] = -1
	}
	for t := 0; t < n; t++ {
		d, f := 1, 1
		for _, pre := range deps[t] {
			d, f = max(d, depth[pre]+1), max(f, finish[pre]+1)
		}
		if w := owners[t]; w != stf.SharedWorker {
			if prev := lastOwned[w]; prev >= 0 {
				f = max(f, finish[prev]+1)
			}
			lastOwned[w] = t
		}
		depth[t], finish[t] = d, f
		cp, span = max(cp, d), max(span, f)
	}
	return cp, span
}

// serializationCases are mappings that exercise the ownership chains:
// balanced, skewed, everything on one worker, and partial ones that leave
// tasks to stf.SharedWorker.
func serializationCases(p int) map[string]stf.Mapping {
	return map[string]stf.Mapping{
		"cyclic": func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(int(id) % p) },
		"single": func(stf.TaskID) stf.WorkerID { return 0 },
		"skewed": func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(int(id) % 7 % p) },
		"partial": func(id stf.TaskID) stf.WorkerID {
			if id%3 == 1 {
				return stf.SharedWorker
			}
			return stf.WorkerID(int(id) / 2 % p)
		},
		"all shared": func(stf.TaskID) stf.WorkerID { return stf.SharedWorker },
	}
}

// checkAgainstReference compares the preflight walk's two numbers with the reference on g
// under m, and the report of the whole analysis with the one the reference
// leads to: every other pass's findings, then the serialization findings
// for the reference's (cp, span). It reports whether there were any.
func checkAgainstReference(t *testing.T, g *stf.Graph, p int, name string, m stf.Mapping) (warned bool) {
	t.Helper()
	owners := make([]stf.WorkerID, len(g.Tasks))
	for i := range owners {
		owners[i] = m(stf.TaskID(i))
	}
	cp, span := walk(g, nil, owners, p)
	wantCP, wantSpan := referenceCriticalPaths(g, owners, p)
	if cp != wantCP || span != wantSpan {
		t.Errorf("%s, %d tasks, %s over %d workers: (cp, span) = (%d, %d), reference (%d, %d)",
			g.Name, len(g.Tasks), name, p, cp, span, wantCP, wantSpan)
	}

	cfg := Config{Passes: PassAccess | PassMapping, Workers: p, Mapping: m, InOrder: true, SerializationFactor: 1.01}
	got := Graph(g, cfg)
	cfg.InOrder = false // the same passes without the check, which comes last
	want := &Report{NumData: g.NumData, Tasks: len(g.Tasks)}
	graphPasses(want, g, cfg)
	if p > 1 && len(g.Tasks) > 1 {
		reportSerialization(want, g, owners, p, cfg.serializationFactor(), wantCP, wantSpan)
	}
	if want.finish(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s, %d tasks, %s over %d workers: report\n%+v\nreference\n%+v", g.Name, len(g.Tasks), name, p, got, want)
	}
	for _, f := range got.Findings {
		warned = warned || f.Code == CodeSerialization
	}
	return warned
}

// TestCriticalPathsMatchDependencies: the streaming pass computes what the
// walk over the explicit DAG computed — the same two numbers and, through
// them, the same report — on random flows, reductions included, and on
// the workload catalogue.
func TestCriticalPathsMatchDependencies(t *testing.T) {
	var flows []*stf.Graph
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 150; i++ {
		flows = append(flows, enginetest.RandomGraph(rng, 40, 6), enginetest.RandomGraphWithReductions(rng, 40, 5))
	}
	for _, wl := range []string{"lu", "cholesky", "gemm", "wavefront", "chain", "independent", "random", "tree", "forkjoin"} {
		for _, size := range []int{1, 2, 5} {
			g, err := WorkloadGraph(wl, size, 7)
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, g)
		}
	}
	warned := 0
	for i, g := range flows {
		p := 1 + i%4
		for name, m := range serializationCases(p) {
			if checkAgainstReference(t, g, p, name, m) {
				warned++
			}
		}
	}
	if warned < 100 {
		t.Errorf("%d of the reports compared carry a serialization warning: too few to say anything about its message", warned)
	}
}
