package verify

import (
	"math/rand"
	"slices"
	"testing"

	"rio/internal/analyze"
	"rio/internal/enginetest"
	"rio/internal/faultinject"
	"rio/internal/sched"
	"rio/internal/stf"
)

// FuzzCompileVerify is the translation-validation property: for any
// graph, mapping and worker count, whatever stf.Compile (eliding) and
// stf.CompileCanonical produce — with or without §3.5 pruning — must
// certify clean, and every faultinject
// stream mutation of either must be rejected. The first half fuzzes the
// compilers against the certifier; the second fuzzes the certifier against
// known-broken streams. Every stream compiled or mutated must also
// round-trip through the decoder: stf.Encode of what a stream
// decodes to is the stream itself.
func FuzzCompileVerify(f *testing.F) {
	f.Add(int64(1), 12, 5, 2, 0, false)
	f.Add(int64(2), 24, 3, 3, 7, true)
	f.Add(int64(3), 6, 2, 1, 1, false)
	f.Add(int64(4), 40, 8, 4, 13, true)
	f.Fuzz(func(t *testing.T, seed int64, maxTasks, maxData, workers, site int, prune bool) {
		if maxTasks < 1 || maxTasks > 64 || maxData < 1 || maxData > 16 {
			t.Skip()
		}
		if workers < 1 || workers > 5 || site < 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var g *stf.Graph
		if seed%2 == 0 {
			g = enginetest.RandomGraph(rng, maxTasks, maxData)
		} else {
			g = enginetest.RandomGraphWithReductions(rng, maxTasks, maxData)
		}
		block := 1 + rng.Intn(3)
		m := func(id stf.TaskID) stf.WorkerID {
			return stf.WorkerID(int(id) / block % workers)
		}
		var rel [][]bool
		if prune {
			rel = sched.Relevant(g, m, workers)
		}
		for _, lowering := range []func(*stf.Graph, stf.Mapping, int, [][]bool) (*stf.CompiledProgram, error){
			stf.Compile, stf.CompileCanonical,
		} {
			cp, err := lowering(g, m, workers, rel)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if rep := Certify(g, cp, Config{Mapping: m}); len(rep.Findings) != 0 {
				t.Fatalf("fresh compile did not certify: %s", rep.Findings[0])
			}
			roundTrips(t, "compiled", cp)
			roundTrips(t, "canonical", cp.Canonical())

			// Every applicable stream mutation must be rejected.
			for _, mut := range faultinject.StreamMutations() {
				mutated, ok := faultinject.MutateStream(cp, mut, site)
				if !ok {
					continue
				}
				roundTrips(t, mut.String(), mutated)
				rep := Certify(g, mutated, Config{Mapping: m})
				if rep.Errors == 0 {
					t.Fatalf("%s at site %d not rejected", mut, site)
				}
				if mut == faultinject.MutElideContended && !rep.Has(analyze.CodeVerifyContended) {
					t.Fatalf("%s at site %d rejected without %s: %v", mut, site, analyze.CodeVerifyContended, rep.Findings)
				}
			}
		}
	})
}

// roundTrips fails the test unless every stream of cp is stf.Encode's
// encoding of its own decoding, with Ops counting the micro-ops decoded.
func roundTrips(t *testing.T, what string, cp *stf.CompiledProgram) {
	t.Helper()
	ops := 0
	for w, s := range cp.Streams {
		ins := slices.Collect(stf.Decode(s))
		if !slices.Equal(stf.Encode(ins), s) {
			t.Fatalf("%s: worker %d stream does not round-trip through the decoder", what, w)
		}
		ops += len(ins)
	}
	if cp.Ops() != ops {
		t.Fatalf("%s: Ops() = %d, streams decode to %d micro-ops", what, cp.Ops(), ops)
	}
}
