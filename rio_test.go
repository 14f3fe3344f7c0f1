package rio_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rio"
	"rio/internal/analyze"
	"rio/internal/enginetest"
	"rio/internal/faultinject"
	"rio/internal/graphs"
	"rio/internal/sched"
)

func TestNewAllModels(t *testing.T) {
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		rt, err := rio.New(rio.Options{Model: m, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if rt.Name() == "" {
			t.Errorf("%v: empty name", m)
		}
	}
	if _, err := rio.New(rio.Options{Model: rio.Model(99)}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestModelString(t *testing.T) {
	cases := map[rio.Model]string{
		rio.InOrder:     "rio",
		rio.Centralized: "centralized-fifo",
		rio.Sequential:  "sequential",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestAccessHelpers(t *testing.T) {
	if a := rio.Read(1); a.Mode != rio.ReadOnly {
		t.Errorf("Read mode = %v", a.Mode)
	}
	if a := rio.Write(1); a.Mode != rio.WriteOnly {
		t.Errorf("Write mode = %v", a.Mode)
	}
	if a := rio.RW(1); a.Mode != rio.ReadWrite {
		t.Errorf("RW mode = %v", a.Mode)
	}
}

// The README/quickstart program, as an API-stability test: all engines
// produce the same result for a closure-based STF program.
func TestQuickstartProgramAllModels(t *testing.T) {
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		vals := make([]int64, 3)
		prog := func(s rio.Submitter) {
			s.Submit(func() { atomic.StoreInt64(&vals[0], 1) }, rio.Write(0))
			s.Submit(func() { atomic.StoreInt64(&vals[1], 2) }, rio.Write(1))
			s.Submit(func() {
				atomic.StoreInt64(&vals[2], atomic.LoadInt64(&vals[0])+atomic.LoadInt64(&vals[1]))
			}, rio.Read(0), rio.Read(1), rio.Write(2))
			s.Submit(func() { atomic.StoreInt64(&vals[2], 10*atomic.LoadInt64(&vals[2])) }, rio.RW(2))
		}
		rt, err := rio.New(rio.Options{Model: m, Workers: 2, Mapping: rio.CyclicMapping(2)})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(3, prog); err != nil {
			t.Fatalf("%s: %v", rt.Name(), err)
		}
		if got := atomic.LoadInt64(&vals[2]); got != 30 {
			t.Errorf("%s: z = %d, want 30", rt.Name(), got)
		}
	}
}

// Cross-model equivalence through the public API on the paper's workloads.
func TestModelsAgreeOnRecordedGraphs(t *testing.T) {
	for _, g := range []*rio.Graph{
		graphs.RandomDeps(300, 32, 2, 1, 13),
		graphs.LU(5),
		graphs.GEMM(4),
	} {
		want, err := enginetest.Golden(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []rio.Model{rio.InOrder, rio.Centralized} {
			rt, err := rio.New(rio.Options{Model: m, Workers: 3, Mapping: rio.CyclicMapping(3)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := enginetest.Run(rt, g)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name, rt.Name(), err)
			}
			if err := enginetest.Compare(g, want, got); err != nil {
				t.Errorf("%s %s: %v", g.Name, rt.Name(), err)
			}
		}
	}
}

func TestStatsExposedThroughPublicAPI(t *testing.T) {
	rt, err := rio.New(rio.Options{Model: rio.InOrder, Workers: 2, Mapping: rio.CyclicMapping(2)})
	if err != nil {
		t.Fatal(err)
	}
	g := graphs.Independent(100)
	if _, err := enginetest.Run(rt, g); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Executed() != 100 {
		t.Errorf("executed = %d", st.Executed())
	}
	eff := rio.Decompose(st.Wall, st.Wall, st)
	if eff.Parallel <= 0 {
		t.Errorf("parallel efficiency = %v", eff.Parallel)
	}
}

func TestWindowOptionThroughPublicAPI(t *testing.T) {
	rt, err := rio.New(rio.Options{Model: rio.Centralized, Workers: 3, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.Check(rt, graphs.LU(5)); err != nil {
		t.Error(err)
	}
}

func TestReplayHelper(t *testing.T) {
	g := graphs.Independent(10)
	var n atomic.Int64
	prog := rio.Replay(g, func(*rio.Task, rio.WorkerID) { n.Add(1) })
	rt, err := rio.New(rio.Options{Model: rio.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(0, prog); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 10 {
		t.Errorf("kernel ran %d times", n.Load())
	}
}

func TestReductionThroughPublicAPI(t *testing.T) {
	rt, err := rio.New(rio.Options{Model: rio.InOrder, Workers: 3, Mapping: rio.CyclicMapping(3)})
	if err != nil {
		t.Fatal(err)
	}
	var sum, final int64
	err = rt.Run(1, func(s rio.Submitter) {
		for i := 1; i <= 100; i++ {
			v := int64(i)
			s.Submit(func() { sum += v }, rio.Reduce(0))
		}
		s.Submit(func() { final = sum }, rio.Read(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 5050 {
		t.Errorf("sum = %d, want 5050", final)
	}
}

func TestPartialMappingThroughPublicAPI(t *testing.T) {
	g := graphs.RandomDeps(200, 16, 2, 1, 9)
	m := rio.PartialMapping(rio.CyclicMapping(3), func(id rio.TaskID) bool { return id%2 == 0 })
	rt, err := rio.New(rio.Options{Model: rio.InOrder, Workers: 3, Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.Check(rt, g); err != nil {
		t.Fatal(err)
	}
	if c := rt.Stats().Claimed(); c != 100 {
		t.Errorf("claimed = %d, want 100", c)
	}
}

// Options.Steal must reach the in-order engine through New. A closure
// program on an armed engine is recorded once and replayed compiled (the
// only steal mechanism): under a fully skewed mapping it executes every
// task exactly once, matches the Sequential oracle, reports thief-side
// steals through Progress and fires the OnTaskSteal hook (RankVictims feeds
// the policy's preference list), and a panicking body fails the run with
// an error naming the panic. Under an
// all-SharedWorker mapping the same program cannot compile and falls back
// to plain closure replay, where the tasks float without stealing.
func TestStealThroughPublicAPI(t *testing.T) {
	const n, lanes = 32, 8
	// Task i extends lane i%lanes: vals[i] = vals[i-lanes] + i + 1.
	program := func(vals []int64, execs *[n]atomic.Int64, fail int) rio.Program {
		return func(s rio.Submitter) {
			for i := 0; i < n; i++ {
				i := i
				body := func() {
					time.Sleep(200 * time.Microsecond)
					if i == fail {
						panic("injected failure")
					}
					vals[i] = int64(i) + 1
					if i >= lanes {
						vals[i] += vals[i-lanes]
					}
					execs[i].Add(1)
				}
				if i >= lanes {
					s.Submit(body, rio.Read(rio.DataID(i-lanes)), rio.Write(rio.DataID(i)))
				} else {
					s.Submit(body, rio.Write(rio.DataID(i)))
				}
			}
		}
	}
	want := make([]int64, n)
	seq, err := rio.New(rio.Options{Model: rio.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Run(n, program(want, new([n]atomic.Int64), -1)); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, rt rio.Runtime, vals []int64, execs *[n]atomic.Int64) {
		t.Helper()
		for i := range execs {
			if c := execs[i].Load(); c != 1 {
				t.Errorf("task %d executed %d times", i, c)
			}
			if vals[i] != want[i] {
				t.Errorf("vals[%d] = %d, sequential oracle %d", i, vals[i], want[i])
			}
		}
		if pr := rt.Progress(); pr.Executed() != n {
			t.Errorf("executed %d != %d", pr.Executed(), n)
		}
	}

	skew := func(rio.TaskID) rio.WorkerID { return 0 }
	victims := rio.RankVictims(graphs.Independent(n), skew, 3)
	if len(victims) != 1 || victims[0] != 0 {
		t.Fatalf("RankVictims = %v, want [0]", victims)
	}
	for _, row := range []struct {
		name    string
		mapping rio.Mapping
		steals  bool
	}{
		{"single", skew, true},
		{"shared-fallback", func(rio.TaskID) rio.WorkerID { return rio.SharedWorker }, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			var hooks atomic.Int64
			rt, err := rio.New(rio.Options{
				Workers: 3,
				Mapping: row.mapping,
				Steal:   &rio.StealPolicy{Victims: victims},
				Hooks: &rio.Hooks{OnTaskSteal: func(thief, owner rio.WorkerID, id rio.TaskID) {
					if owner != 0 || thief == 0 {
						t.Errorf("steal hook thief=%d owner=%d", thief, owner)
					}
					hooks.Add(1)
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			vals, execs := make([]int64, n), new([n]atomic.Int64)
			if err := rt.Run(n, program(vals, execs, -1)); err != nil {
				t.Fatal(err)
			}
			check(t, rt, vals, execs)
			pr := rt.Progress()
			if (pr.Stolen() > 0) != row.steals {
				t.Errorf("Progress.Stolen = %d, want steals: %v", pr.Stolen(), row.steals)
			}
			if hooks.Load() != pr.Stolen() {
				t.Errorf("OnTaskSteal fired %d times, Progress.Stolen = %d", hooks.Load(), pr.Stolen())
			}
		})
	}

	t.Run("panic", func(t *testing.T) {
		rt, err := rio.New(rio.Options{Workers: 3, Mapping: skew, Steal: &rio.StealPolicy{}})
		if err != nil {
			t.Fatal(err)
		}
		vals, execs := make([]int64, n), new([n]atomic.Int64)
		if err := rt.Run(n, program(vals, execs, 20)); err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("panicking body on the recorded path = %v, want an error naming the panic", err)
		}
	})
}

// A defective steal policy must be rejected at construction.
func TestStealOptionValidatedThroughPublicAPI(t *testing.T) {
	_, err := rio.New(rio.Options{Workers: 2, Steal: &rio.StealPolicy{MaxScan: -1}})
	if err == nil {
		t.Error("negative MaxScan accepted")
	}
	_, err = rio.New(rio.Options{Workers: 2, Steal: &rio.StealPolicy{Victims: []rio.WorkerID{5}}})
	if err == nil {
		t.Error("out-of-range victim accepted")
	}
}

func TestMappingHelpersThroughPublicAPI(t *testing.T) {
	g := graphs.LU(6)
	p := 4
	m := sched.OwnerComputes(g, sched.NewGrid2D(p))
	rel := rio.RelevantTasks(g, m, p)
	rt, err := rio.New(rio.Options{Model: rio.InOrder, Workers: p, Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	want, err := enginetest.Golden(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enginetest.RunProgram(rt, g, func(k rio.Kernel) rio.Program {
		return rio.PrunedReplay(g, k, rel)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.Compare(g, want, got); err != nil {
		t.Error(err)
	}
}

func TestOwnerComputesThroughPublicAPI(t *testing.T) {
	g := graphs.Cholesky(5)
	m := sched.OwnerComputes(g, sched.NewGrid2D(4))
	rt, err := rio.New(rio.Options{Model: rio.InOrder, Workers: 4, Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.Check(rt, g); err != nil {
		t.Error(err)
	}
}

// preflightDefects are the acceptance defect programs: each must be
// rejected by Options.Preflight before any task body runs.
var preflightDefects = []struct {
	name    string
	numData int
	opts    rio.Options
	prog    func(ran *atomic.Bool) rio.Program
	want    string
}{
	{
		name:    "uninitialized read",
		numData: 1,
		opts:    rio.Options{Workers: 2, Preflight: rio.PreflightAccess},
		prog: func(ran *atomic.Bool) rio.Program {
			return func(s rio.Submitter) {
				s.Submit(func() { ran.Store(true) }, rio.Read(0))
				s.Submit(func() { ran.Store(true) }, rio.Write(0))
			}
		},
		want: "RIO-A010",
	},
	{
		name:    "dead write",
		numData: 1,
		opts:    rio.Options{Workers: 2, Preflight: rio.PreflightAccess},
		prog: func(ran *atomic.Bool) rio.Program {
			return func(s rio.Submitter) {
				s.Submit(func() { ran.Store(true) }, rio.Write(0))
				s.Submit(func() { ran.Store(true) }, rio.Write(0))
				s.Submit(func() { ran.Store(true) }, rio.Read(0))
			}
		},
		want: "RIO-A012",
	},
	{
		name:    "out-of-range mapping",
		numData: 1,
		opts: rio.Options{Workers: 2, Preflight: rio.PreflightMapping,
			Mapping: func(rio.TaskID) rio.WorkerID { return 9 }},
		prog: func(ran *atomic.Bool) rio.Program {
			return func(s rio.Submitter) {
				s.Submit(func() { ran.Store(true) }, rio.Write(0))
				s.Submit(func() { ran.Store(true) }, rio.RW(0))
			}
		},
		want: "RIO-M001",
	},
	{
		name:    "serialized wavefront mapping",
		numData: 16,
		opts: rio.Options{Workers: 4, Preflight: rio.PreflightMapping,
			Mapping: func(rio.TaskID) rio.WorkerID { return 0 }},
		prog: func(ran *atomic.Bool) rio.Program {
			g := graphs.Wavefront(4, 4)
			return func(s rio.Submitter) {
				for i := range g.Tasks {
					s.Submit(func() { ran.Store(true) }, g.Tasks[i].Accesses...)
				}
			}
		},
		want: "RIO-M004",
	},
}

func TestPreflightRejectsDefectsBeforeAnyTaskRuns(t *testing.T) {
	for _, tc := range preflightDefects {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := rio.New(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var ran atomic.Bool
			err = rt.Run(tc.numData, tc.prog(&ran))
			var pf *rio.PreflightError
			if !errors.As(err, &pf) {
				t.Fatalf("want *rio.PreflightError, got %v", err)
			}
			found := false
			for _, f := range pf.Report.Findings {
				if string(f.Code) == tc.want {
					found = true
				}
			}
			if !found {
				t.Fatalf("want a %s finding, got %+v", tc.want, pf.Report.Findings)
			}
			if ran.Load() {
				t.Fatal("a task body ran despite the preflight rejection")
			}
		})
	}
}

func TestPreflightRejectsNondeterministicProgram(t *testing.T) {
	rt, err := rio.New(rio.Options{Workers: 2, Preflight: rio.PreflightDeterminism})
	if err != nil {
		t.Fatal(err)
	}
	var replay atomic.Int64
	prog := func(s rio.Submitter) {
		n := replay.Add(1)
		s.Submit(nil, rio.Write(0))
		if n%2 == 1 {
			s.Submit(nil, rio.Read(0))
		} else {
			s.Submit(nil, rio.RW(0))
		}
	}
	err = rt.Run(1, prog)
	var pf *rio.PreflightError
	if !errors.As(err, &pf) {
		t.Fatalf("want *rio.PreflightError, got %v", err)
	}
	if !pf.Report.Has("RIO-D001") {
		t.Fatalf("want RIO-D001, got %+v", pf.Report.Findings)
	}
}

func TestPreflightPassesCleanProgramsThrough(t *testing.T) {
	g := graphs.LU(4)
	rt, err := rio.New(rio.Options{Workers: 4, Preflight: rio.PreflightAll})
	if err != nil {
		t.Fatal(err)
	}
	if err := enginetest.Check(rt, g); err != nil {
		t.Error(err)
	}
}

// rio.Verify is the library surface of the certifier: a fresh compile
// certifies clean, and a corrupted stream is rejected with a RIO-V code.
func TestVerifyFunctionRejectsCorruptedStream(t *testing.T) {
	g := graphs.GEMM(3)
	cp, err := rio.Compile(g, 3, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep := rio.Verify(g, cp, nil, nil); len(rep.Findings) != 0 {
		t.Fatalf("clean compile rejected: %+v", rep.Findings)
	}
	mutated, ok := faultinject.MutateStream(cp, faultinject.MutDropExec, 0)
	if !ok {
		t.Fatal("no mutation site for MutDropExec")
	}
	rep := rio.Verify(g, mutated, nil, nil)
	if !rep.Has(analyze.CodeVerifyCoverage) {
		t.Fatalf("dropped exec not flagged as %s: %+v", analyze.CodeVerifyCoverage, rep.Findings)
	}
}
