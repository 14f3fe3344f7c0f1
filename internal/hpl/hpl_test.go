package hpl_test

import (
	"testing"
	"testing/quick"

	"rio"
	"rio/internal/hpl"
	"rio/internal/sched"
	"rio/internal/stf"
)

// factor runs the flow under the given execution model and returns the
// residual ‖L·U − P·A‖ / (n·‖A‖).
func factor(t *testing.T, model rio.Model, n, b, workers int, seed uint64) float64 {
	t.Helper()
	f, err := hpl.NewFlow(n, b)
	if err != nil {
		t.Fatal(err)
	}
	f.A.FillRandom(seed)
	orig := f.A.Clone()

	var kerr error
	kern := f.Kernel(func(e error) { kerr = e })
	mapping := f.ColumnMapping(max(1, workers))
	e, err := rio.New(rio.Options{Model: model, Workers: workers, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(f.Graph.NumData, stf.Replay(f.Graph, kern)); err != nil {
		t.Fatal(err)
	}
	if kerr != nil {
		t.Fatal(kerr)
	}
	orig.ApplyPivots(f.Ipiv)
	return hpl.Residual(f.A.Reconstruct(), orig)
}

func TestSequentialFactorization(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{8, 4}, {16, 4}, {32, 8}, {64, 16}, {48, 48}} {
		if r := factor(t, rio.Sequential, tc.n, tc.b, 1, 1); r > 1e-12 {
			t.Errorf("n=%d b=%d: residual %g", tc.n, tc.b, r)
		}
	}
}

func TestPivotingActuallyPivots(t *testing.T) {
	// A matrix needing pivoting: zero on the leading diagonal position.
	f, err := hpl.NewFlow(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.A.FillRandom(3)
	f.A.Set(0, 0, 0) // forces ipiv[0] != 0
	orig := f.A.Clone()
	var kerr error
	e, _ := rio.New(rio.Options{Model: rio.Sequential})
	if err := e.Run(f.Graph.NumData, stf.Replay(f.Graph, f.Kernel(func(e error) { kerr = e }))); err != nil {
		t.Fatal(err)
	}
	if kerr != nil {
		t.Fatal(kerr)
	}
	if f.Ipiv[0] == 0 {
		t.Error("pivot search kept a zero pivot in place")
	}
	orig.ApplyPivots(f.Ipiv)
	if r := hpl.Residual(f.A.Reconstruct(), orig); r > 1e-12 {
		t.Errorf("residual %g", r)
	}
}

func TestParallelEnginesMatch(t *testing.T) {
	for _, model := range []rio.Model{rio.InOrder, rio.Centralized} {
		for _, workers := range []int{2, 4} {
			if r := factor(t, model, 32, 8, workers, 7); r > 1e-12 {
				t.Errorf("%s p=%d: residual %g", model, workers, r)
			}
		}
	}
}

func TestFlowShape(t *testing.T) {
	f, err := hpl.NewFlow(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Panel tasks per panel: b pivscale + b(b-1) swaps + b(b-1)/2 rank-1.
	b, panels := 8, 4
	wantPanel := panels * (b + b*(b-1) + b*(b-1)/2)
	if f.PanelTasks != wantPanel {
		t.Errorf("panel tasks = %d, want %d", f.PanelTasks, wantPanel)
	}
	// The fine-grained share should dominate the task flow — the paper's
	// point about HPL.
	if 2*f.PanelTasks < len(f.Graph.Tasks) {
		t.Errorf("panel (fine-grained) tasks %d are not the majority of %d", f.PanelTasks, len(f.Graph.Tasks))
	}
}

func TestNewFlowValidation(t *testing.T) {
	if _, err := hpl.NewFlow(10, 3); err == nil {
		t.Error("b not dividing n accepted")
	}
	if _, err := hpl.NewFlow(0, 1); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestColumnMappingValid(t *testing.T) {
	f, err := hpl.NewFlow(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4} {
		if err := sched.Validate(f.Graph, f.ColumnMapping(p), p); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

func TestDenseHelpers(t *testing.T) {
	d, err := hpl.NewDense(4)
	if err != nil {
		t.Fatal(err)
	}
	d.Set(1, 2, -3)
	if d.At(1, 2) != -3 || d.Col(2)[1] != -3 {
		t.Error("Set/At/Col mismatch")
	}
	if d.MaxAbs() != 3 {
		t.Errorf("MaxAbs = %v", d.MaxAbs())
	}
	c := d.Clone()
	c.Set(1, 2, 5)
	if d.At(1, 2) != -3 {
		t.Error("Clone aliases the original")
	}
	if _, err := hpl.NewDense(0); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestApplyPivotsComposes(t *testing.T) {
	d, _ := hpl.NewDense(3)
	for i := 0; i < 3; i++ {
		d.Set(i, 0, float64(i))
	}
	// ipiv = [2, 2]: swap rows 0,2 then rows 1,2.
	d.ApplyPivots([]int{2, 2})
	got := []float64{d.At(0, 0), d.At(1, 0), d.At(2, 0)}
	want := []float64{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after pivots col0 = %v, want %v", got, want)
		}
	}
}

// Property: random sizes, blockings, seeds and worker counts all factor
// correctly under RIO.
func TestPropertyFactorization(t *testing.T) {
	f := func(seed uint64) bool {
		nb := []struct{ n, b int }{{8, 2}, {12, 4}, {16, 8}, {24, 6}}
		c := nb[seed%uint64(len(nb))]
		workers := 1 + int(seed%3)
		fl, err := hpl.NewFlow(c.n, c.b)
		if err != nil {
			return false
		}
		fl.A.FillRandom(seed)
		orig := fl.A.Clone()
		var kerr error
		e, err := rio.New(rio.Options{Workers: workers, Mapping: fl.ColumnMapping(workers)})
		if err != nil {
			return false
		}
		if err := e.Run(fl.Graph.NumData, stf.Replay(fl.Graph, fl.Kernel(func(e error) { kerr = e }))); err != nil {
			return false
		}
		if kerr != nil {
			return false
		}
		orig.ApplyPivots(fl.Ipiv)
		return hpl.Residual(fl.A.Reconstruct(), orig) < 1e-10
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
