package verify

import (
	"math/rand"
	"slices"
	"testing"

	"rio/internal/analyze"
	"rio/internal/faultinject"
	"rio/internal/sched"
	"rio/internal/stf"
)

func cyclic(workers int) stf.Mapping {
	return func(id stf.TaskID) stf.WorkerID { return stf.WorkerID(int(id) % workers) }
}

func mustCompile(t *testing.T, g *stf.Graph, m stf.Mapping, workers int, prune bool) *stf.CompiledProgram {
	t.Helper()
	var rel [][]bool
	if prune {
		rel = sched.Relevant(g, m, workers)
	}
	cp, err := stf.Compile(g, m, workers, rel)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cp
}

func assertClean(t *testing.T, rep *analyze.Report, what string) {
	t.Helper()
	if len(rep.Findings) != 0 {
		t.Fatalf("%s: expected a clean certificate, got %d finding(s), first: %s",
			what, len(rep.Findings), rep.Findings[0])
	}
}

// TestCertifyWorkloadsClean certifies every shipped workload generator,
// pruned and unpruned, under several mappings and worker counts.
func TestCertifyWorkloadsClean(t *testing.T) {
	workloads := []string{"lu", "cholesky", "gemm", "wavefront", "chain", "independent", "random", "tree", "forkjoin"}
	mappings := []string{"cyclic", "block", "blockcyclic:2", "single:0"}
	for _, wl := range workloads {
		g, err := analyze.WorkloadGraph(wl, 4, 42)
		if err != nil {
			t.Fatalf("workload %s: %v", wl, err)
		}
		for _, spec := range mappings {
			for _, workers := range []int{1, 3} {
				m, err := analyze.ParseMapping(spec, g, workers)
				if err != nil {
					t.Fatalf("mapping %s: %v", spec, err)
				}
				for _, prune := range []bool{false, true} {
					cp := mustCompile(t, g, m, workers, prune)
					rep := Certify(g, cp, Config{Mapping: m})
					assertClean(t, rep, wl+"/"+spec)
				}
			}
		}
	}
}

// TestCertifyReductionsClean covers the reduction-run protocol paths:
// runs of commuting accesses interleaved with reads and writes.
func TestCertifyReductionsClean(t *testing.T) {
	g := stf.NewGraph("red-runs", 2)
	g.Add(0, 0, 0, 0, stf.W(0), stf.W(1))
	g.Add(0, 0, 0, 0, stf.Red(0))
	g.Add(0, 0, 0, 0, stf.Red(0), stf.R(1))
	g.Add(0, 0, 0, 0, stf.Red(0))
	g.Add(0, 0, 0, 0, stf.R(0))
	g.Add(0, 0, 0, 0, stf.Red(0))
	g.Add(0, 0, 0, 0, stf.RW(0), stf.Red(1))
	for _, workers := range []int{1, 2, 3} {
		m := cyclic(workers)
		for _, prune := range []bool{false, true} {
			cp := mustCompile(t, g, m, workers, prune)
			assertClean(t, Certify(g, cp, Config{Mapping: m}), "red-runs")
		}
	}
}

// mutationGraph is the crafted flow the mutation-class table runs over:
// two data objects, writer/reader pairs split across two workers, so
// every defect class has an applicable and detectable site.
func mutationGraph() (*stf.Graph, stf.Mapping) {
	g := stf.NewGraph("mutation", 2)
	g.Add(0, 0, 0, 0, stf.W(0)) // t0 → worker 0
	g.Add(0, 0, 0, 0, stf.R(0)) // t1 → worker 1
	g.Add(0, 0, 0, 0, stf.W(1)) // t2 → worker 0
	g.Add(0, 0, 0, 0, stf.R(1)) // t3 → worker 1
	return g, cyclic(2)
}

// TestMutationClassesFlagged seeds one defect of every class and asserts
// the certifier rejects each with its class's distinct RIO-V00x code.
func TestMutationClassesFlagged(t *testing.T) {
	g, m := mutationGraph()
	cp := mustCompile(t, g, m, 2, false)
	assertClean(t, Certify(g, cp, Config{Mapping: m}), "unmutated baseline")

	cases := []struct {
		mut  faultinject.StreamMutation
		site int
		want analyze.Code
	}{
		{faultinject.MutCorruptOpcode, 0, analyze.CodeVerifyStructure},
		{faultinject.MutDropExec, 0, analyze.CodeVerifyCoverage},
		{faultinject.MutRetargetExec, 0, analyze.CodeVerifyOwnership},
		{faultinject.MutReorderGroups, 0, analyze.CodeVerifyOrder},
		{faultinject.MutRetargetData, 0, analyze.CodeVerifyAccessSet},
		{faultinject.MutElideDeclares, 0, analyze.CodeVerifyElision},
		// Site 2 drops t1's get_read on data 0: the wait that orders the
		// reader after t0's write on the other worker.
		{faultinject.MutDropWait, 2, analyze.CodeVerifyHappensBefore},
		{faultinject.MutElideContended, 0, analyze.CodeVerifyContended},
	}
	for _, tc := range cases {
		mutated, ok := faultinject.MutateStream(cp, tc.mut, tc.site)
		if !ok {
			t.Errorf("%s: no mutation site on the crafted program", tc.mut)
			continue
		}
		rep := Certify(g, mutated, Config{Mapping: m})
		if rep.Errors == 0 {
			t.Errorf("%s: mutation not rejected", tc.mut)
			continue
		}
		if !rep.Has(tc.want) {
			t.Errorf("%s: want %s, got findings: %v", tc.mut, tc.want, rep.Findings)
		}
		if tc.mut == faultinject.MutElideContended {
			// The elision claim and the streams agree; only the claim is wrong.
			for _, f := range rep.Findings {
				if f.Code != tc.want {
					t.Errorf("%s: want %s alone, also got %s", tc.mut, tc.want, f)
				}
			}
		}
	}
}

// elisionGraph has one data object of each uncontended kind next to a
// contended one, under cyclic(2): data 0 is single-owner (worker 0 writes
// and reads it), data 1 is never written, data 2 is only reduced, data 3
// is written by worker 0 and read by worker 1.
func elisionGraph() (*stf.Graph, stf.Mapping) {
	g := stf.NewGraph("elision", 4)
	g.Add(0, 0, 0, 0, stf.W(0), stf.R(1), stf.W(3))   // t0 → worker 0
	g.Add(0, 0, 0, 0, stf.R(1), stf.Red(2), stf.R(3)) // t1 → worker 1
	g.Add(0, 0, 0, 0, stf.RW(0), stf.Red(2))          // t2 → worker 0
	g.Add(0, 0, 0, 0, stf.R(1), stf.RW(3))            // t3 → worker 1
	return g, cyclic(2)
}

// TestElisionClaimChecked pins both directions of the elision contract:
// the compiler elides exactly the uncontended data and certifies; a
// program whose streams and elision set disagree is an access-set
// mismatch (RIO-V005), never silently accepted and never RIO-V009.
func TestElisionClaimChecked(t *testing.T) {
	g, m := elisionGraph()
	cp := mustCompile(t, g, m, 2, false)
	if want := []bool{true, true, true, false}; !slices.Equal(cp.Elided, want) {
		t.Fatalf("Elided = %v, want %v", cp.Elided, want)
	}
	for _, s := range cp.Streams {
		for in := range stf.Decode(s) {
			if in.Op != stf.OpExec && in.Data != 3 {
				t.Fatalf("micro-op %v on an elided data object", in)
			}
		}
	}
	assertClean(t, Certify(g, cp, Config{Mapping: m}), "elided program")
	canon, err := stf.CompileCanonical(g, m, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, Certify(g, canon, Config{Mapping: m}), "canonical program")

	onlyAccessSet := func(what string, rep *analyze.Report) {
		t.Helper()
		if !rep.Has(analyze.CodeVerifyAccessSet) || rep.Has(analyze.CodeVerifyContended) {
			t.Errorf("%s: want %s and no %s, got %v", what, analyze.CodeVerifyAccessSet, analyze.CodeVerifyContended, rep.Findings)
		}
	}
	// Streams elided, claim withdrawn: every micro-op on data 0 is missing.
	unclaimed := faultinject.CloneProgram(cp)
	unclaimed.Elided[0] = false
	onlyAccessSet("unclaimed elision", Certify(g, unclaimed, Config{Mapping: m}))
	// Claim made, streams canonical: the micro-ops on data 0 are unexpected.
	overclaimed := faultinject.CloneProgram(canon)
	overclaimed.Elided = []bool{true, false, false, false}
	onlyAccessSet("claim without elision", Certify(g, overclaimed, Config{Mapping: m}))

	short := faultinject.CloneProgram(cp)
	short.Elided = short.Elided[:2]
	if rep := Certify(g, short, Config{Mapping: m}); !rep.Has(analyze.CodeVerifyStructure) {
		t.Errorf("truncated elision set: want %s, got %v", analyze.CodeVerifyStructure, rep.Findings)
	}
}

// TestMutationSiteSweep applies every class at every applicable site and
// requires rejection each time — 100%% of seeded stream mutations.
func TestMutationSiteSweep(t *testing.T) {
	g, m := mutationGraph()
	cp := mustCompile(t, g, m, 2, false)
	for _, mut := range faultinject.StreamMutations() {
		for site := 0; site < 12; site++ {
			mutated, ok := faultinject.MutateStream(cp, mut, site)
			if !ok {
				continue
			}
			if rep := Certify(g, mutated, Config{Mapping: m}); rep.Errors == 0 {
				t.Errorf("%s at site %d: mutation not rejected", mut, site)
			}
		}
	}
}

// TestCertifyRejectsBadInputs covers the structural V001 paths that
// don't come from stream mutations.
func TestCertifyRejectsBadInputs(t *testing.T) {
	g, m := mutationGraph()
	cp := mustCompile(t, g, m, 2, false)

	if rep := Certify(g, cp, Config{}); !rep.Has(analyze.CodeVerifyStructure) {
		t.Errorf("nil mapping: want %s, got %v", analyze.CodeVerifyStructure, rep.Findings)
	}
	if rep := Certify(nil, cp, Config{Mapping: m}); !rep.Has(analyze.CodeVerifyStructure) {
		t.Errorf("nil graph: want %s, got %v", analyze.CodeVerifyStructure, rep.Findings)
	}
	other := stf.NewGraph("other", 3)
	if rep := Certify(other, cp, Config{Mapping: m}); !rep.Has(analyze.CodeVerifyStructure) {
		t.Errorf("mismatched graph: want %s, got %v", analyze.CodeVerifyStructure, rep.Findings)
	}
	bad := func(stf.TaskID) stf.WorkerID { return 99 }
	if rep := Certify(g, cp, Config{Mapping: bad}); !rep.Has(analyze.CodeVerifyStructure) {
		t.Errorf("out-of-range mapping: want %s, got %v", analyze.CodeVerifyStructure, rep.Findings)
	}
	// A trailing task word decodes to nothing: the decoded view is the
	// certified one, the words are not.
	stray := faultinject.CloneProgram(cp)
	taskWord := stf.Encode([]stf.Instr{{Op: stf.OpDeclareRead, Task: 0}})[0]
	stray.Streams[1] = append(stray.Streams[1], taskWord)
	if rep := Certify(g, stray, Config{Mapping: m}); !rep.Has(analyze.CodeVerifyStructure) {
		t.Errorf("stray task word: want %s, got %v", analyze.CodeVerifyStructure, rep.Findings)
	}
}

// TestCertifyCrossStreamDuplicateExec covers the duplicate-coverage path
// the mutators don't hit: the same task executing on two workers.
func TestCertifyCrossStreamDuplicateExec(t *testing.T) {
	g, m := mutationGraph()
	cp := mustCompile(t, g, m, 2, false)
	mutated := faultinject.CloneProgram(cp)
	// Graft t0's exec group onto worker 1's stream in place of its
	// declare group (t0's group is first in both streams).
	var ownedT0 []stf.Instr
	for in := range stf.Decode(cp.Streams[0]) {
		if in.Task == 0 {
			ownedT0 = append(ownedT0, in)
		}
	}
	var rest []stf.Instr
	for in := range stf.Decode(cp.Streams[1]) {
		if in.Task != 0 {
			rest = append(rest, in)
		}
	}
	mutated.Streams[1] = stf.Encode(append(ownedT0, rest...))
	rep := Certify(g, mutated, Config{Mapping: m})
	if !rep.Has(analyze.CodeVerifyCoverage) {
		t.Errorf("duplicate exec: want %s, got %v", analyze.CodeVerifyCoverage, rep.Findings)
	}
}

// TestCertifyDeterministic pins that certification of the same inputs
// yields byte-identical findings (report order is part of the contract).
func TestCertifyDeterministic(t *testing.T) {
	g, m := mutationGraph()
	cp := mustCompile(t, g, m, 2, false)
	mutated, ok := faultinject.MutateStream(cp, faultinject.MutElideDeclares, 0)
	if !ok {
		t.Fatal("no elision site")
	}
	a := Certify(g, mutated, Config{Mapping: m})
	b := Certify(g, mutated, Config{Mapping: m})
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		if a.Findings[i] != b.Findings[i] {
			t.Fatalf("finding %d differs: %v vs %v", i, a.Findings[i], b.Findings[i])
		}
	}
}

// TestCanonicalIsEncodeOfDecode: the certifier's own reading of the
// encoding agrees with stf's on any word sequence — canonical holds
// exactly when stf.Encode of the decoded micro-ops gives the words back.
func TestCanonicalIsEncodeOfDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	agree := map[bool]int{}
	for trial := 0; trial < 20000; trial++ {
		words := make([]stf.Word, rng.Intn(8))
		for i := range words {
			op := []stf.OpCode{stf.OpTask, stf.OpExec, stf.OpGetRead, stf.OpDeclareWrite, 15}[rng.Intn(5)]
			words[i] = stf.Word(uint32(op)<<28 | uint32(rng.Intn(3)))
		}
		want := slices.Equal(stf.Encode(slices.Collect(stf.Decode(words))), words)
		if got := canonical(words); got != want {
			t.Fatalf("canonical(%x) = %v, Encode of Decode gives it back: %v", words, got, want)
		}
		agree[want]++
	}
	if agree[true] < 1000 || agree[false] < 1000 {
		t.Errorf("sample too one-sided: %v", agree)
	}
}
