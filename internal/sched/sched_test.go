package sched_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rio/internal/enginetest"
	"rio/internal/graphs"
	"rio/internal/sched"
	"rio/internal/stf"
)

func TestCyclic(t *testing.T) {
	m := sched.Cyclic(3)
	want := []stf.WorkerID{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := m(stf.TaskID(i)); got != w {
			t.Errorf("cyclic(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestBlockCoversAllWorkers(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 3}, {12, 4}, {7, 7}, {100, 6}, {3, 5}} {
		m := sched.Block(tc.n, tc.p)
		seen := make(map[stf.WorkerID]bool)
		for i := 0; i < tc.n; i++ {
			w := m(stf.TaskID(i))
			if w < 0 || int(w) >= tc.p {
				t.Fatalf("Block(%d,%d)(%d) = %d out of range", tc.n, tc.p, i, w)
			}
			seen[w] = true
		}
		// Block must be monotone: chunk boundaries never go backwards.
		last := stf.WorkerID(0)
		for i := 0; i < tc.n; i++ {
			w := m(stf.TaskID(i))
			if w < last {
				t.Fatalf("Block(%d,%d) not monotone at %d", tc.n, tc.p, i)
			}
			last = w
		}
	}
}

func TestBlockCyclic(t *testing.T) {
	m := sched.BlockCyclic(2, 3)
	want := []stf.WorkerID{0, 0, 0, 1, 1, 1, 0, 0, 0, 1}
	for i, w := range want {
		if got := m(stf.TaskID(i)); got != w {
			t.Errorf("blockcyclic(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestSingle(t *testing.T) {
	m := sched.Single(2)
	for i := 0; i < 10; i++ {
		if m(stf.TaskID(i)) != 2 {
			t.Fatalf("Single(2)(%d) != 2", i)
		}
	}
}

func TestTableFallsBackBeyondLength(t *testing.T) {
	m := sched.Table([]stf.WorkerID{1, 2, 2})
	for _, c := range []struct {
		id   stf.TaskID
		want stf.WorkerID
	}{
		{0, 1}, {1, 2}, {2, 2},
		// Beyond the table every task maps to worker 0, not cyclically
		// over max(owners)+1 = 3 (which would send task 4 to worker 1).
		{3, 0}, {4, 0}, {5, 0}, {1000, 0},
	} {
		if got := m(c.id); got != c.want {
			t.Errorf("Table(1, 2, 2)(%d) = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestNewGrid2D(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		2:  {1, 2},
		4:  {2, 2},
		6:  {2, 3},
		12: {3, 4},
		7:  {1, 7},
		24: {4, 6},
	}
	for p, want := range cases {
		g := sched.NewGrid2D(p)
		if g.PR != want[0] || g.PC != want[1] {
			t.Errorf("NewGrid2D(%d) = %dx%d, want %dx%d", p, g.PR, g.PC, want[0], want[1])
		}
		if g.PR*g.PC != p {
			t.Errorf("NewGrid2D(%d): grid does not cover all workers", p)
		}
	}
}

func TestGrid2DOwnerInRange(t *testing.T) {
	g := sched.NewGrid2D(6)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			w := g.Owner(i, j)
			if w < 0 || int(w) >= 6 {
				t.Fatalf("Owner(%d,%d) = %d out of range", i, j, w)
			}
		}
	}
	// 2-D block-cyclic periodicity.
	if g.Owner(0, 0) != g.Owner(g.PR, g.PC) {
		t.Error("block-cyclic periodicity broken")
	}
}

func TestOwnerComputesValid(t *testing.T) {
	for _, gph := range []*stf.Graph{graphs.LU(8), graphs.Cholesky(8), graphs.GEMM(5), graphs.Wavefront(6, 6)} {
		for _, p := range []int{1, 2, 4, 6} {
			m := sched.OwnerComputes(gph, sched.NewGrid2D(p))
			if err := sched.Validate(gph, m, p); err != nil {
				t.Errorf("%s p=%d: %v", gph.Name, p, err)
			}
		}
	}
}

func TestValidateDetectsBadMapping(t *testing.T) {
	g := graphs.Independent(5)
	bad := func(stf.TaskID) stf.WorkerID { return 9 }
	if err := sched.Validate(g, bad, 2); err == nil {
		t.Error("invalid mapping accepted")
	}
}

func TestHistogram(t *testing.T) {
	g := graphs.Independent(10)
	h := sched.Histogram(g, sched.Cyclic(3), 3)
	if h[0] != 4 || h[1] != 3 || h[2] != 3 {
		t.Errorf("histogram = %v, want [4 3 3]", h)
	}
}

func TestRelevantOwnedTasksAlwaysRelevant(t *testing.T) {
	g := graphs.LU(6)
	p := 4
	m := sched.Cyclic(p)
	rel := sched.Relevant(g, m, p)
	for i := range g.Tasks {
		w := m(stf.TaskID(i))
		if !rel[w][i] {
			t.Fatalf("task %d not relevant to its own worker %d", i, w)
		}
	}
}

// The soundness condition of pruning: for every data object some owned task
// of worker w touches, *every* task accessing that object must be relevant
// to w (otherwise w's local counters would miss accesses it synchronizes
// on).
func TestRelevantSoundness(t *testing.T) {
	for _, g := range []*stf.Graph{
		graphs.LU(6), graphs.GEMM(4), graphs.RandomDeps(200, 16, 2, 1, 3), graphs.Wavefront(5, 5),
	} {
		p := 3
		m := sched.Cyclic(p)
		rel := sched.Relevant(g, m, p)
		for w := 0; w < p; w++ {
			owned := make([]bool, g.NumData)
			for i := range g.Tasks {
				if m(stf.TaskID(i)) != stf.WorkerID(w) {
					continue
				}
				for _, a := range g.Tasks[i].Accesses {
					owned[a.Data] = true
				}
			}
			for i := range g.Tasks {
				touches := false
				for _, a := range g.Tasks[i].Accesses {
					if owned[a.Data] {
						touches = true
						break
					}
				}
				if touches && !rel[w][i] {
					t.Fatalf("%s: task %d touches worker %d's data but is pruned", g.Name, i, w)
				}
			}
		}
	}
}

func TestRelevantPropertySound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraph(rng, 40, 8)
		p := 1 + rng.Intn(4)
		m := sched.Cyclic(p)
		rel := sched.Relevant(g, m, p)
		for w := 0; w < p; w++ {
			owned := make([]bool, g.NumData)
			for i := range g.Tasks {
				if m(stf.TaskID(i)) == stf.WorkerID(w) {
					for _, a := range g.Tasks[i].Accesses {
						owned[a.Data] = true
					}
				}
			}
			for i := range g.Tasks {
				for _, a := range g.Tasks[i].Accesses {
					if owned[a.Data] && !rel[w][i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPruneRatio(t *testing.T) {
	// Independent tasks: everything foreign is pruned; with p workers and
	// cyclic mapping the kept fraction is 1/p.
	g := graphs.Independent(100)
	p := 4
	rel := sched.Relevant(g, sched.Cyclic(p), p)
	if got := sched.PruneRatio(rel); got < 0.74 || got > 0.76 {
		t.Errorf("PruneRatio = %v, want 0.75", got)
	}
	// A single chain shared by everyone: nothing can be pruned.
	chain := stf.NewGraph("chain", 1)
	for i := 0; i < 50; i++ {
		chain.Add(0, i, 0, 0, stf.RW(0))
	}
	rel = sched.Relevant(chain, sched.Cyclic(p), p)
	if got := sched.PruneRatio(rel); got != 0 {
		t.Errorf("chain PruneRatio = %v, want 0", got)
	}
}

func TestPrunedReplayFullFlowForMaster(t *testing.T) {
	g := graphs.Independent(10)
	rel := sched.Relevant(g, sched.Cyclic(2), 2)
	prog := sched.PrunedReplay(g, func(*stf.Task, stf.WorkerID) {}, rel)
	rec := &countingSubmitter{w: stf.MasterWorker}
	prog(rec)
	if rec.n != 10 {
		t.Errorf("master got %d tasks, want full flow of 10", rec.n)
	}
	rec = &countingSubmitter{w: 0}
	prog(rec)
	if rec.n != 5 {
		t.Errorf("worker 0 got %d tasks, want 5", rec.n)
	}
}

type countingSubmitter struct {
	w stf.WorkerID
	n int
}

func (c *countingSubmitter) Submit(fn stf.TaskFunc, _ ...stf.Access) stf.TaskID {
	c.n++
	return stf.TaskID(c.n - 1)
}
func (c *countingSubmitter) SubmitTask(t *stf.Task, _ stf.Kernel) stf.TaskID {
	c.n++
	return t.ID
}
func (c *countingSubmitter) Worker() stf.WorkerID { return c.w }
func (c *countingSubmitter) NumWorkers() int      { return 2 }
