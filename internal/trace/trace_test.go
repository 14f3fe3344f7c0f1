package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rio/internal/stf"
)

func TestCumulativeSumsWorkers(t *testing.T) {
	s := &Stats{
		Workers: []Worker{
			{Task: 10, Idle: 2, Runtime: 3, Wall: 15},
			{Task: 8, Idle: 4, Runtime: 3, Wall: 15},
		},
		Wall: 15,
	}
	task, idle, rt := s.Cumulative()
	if task != 18 || idle != 6 || rt != 6 {
		t.Errorf("Cumulative = %v %v %v, want 18 6 6", task, idle, rt)
	}
	if s.TotalCumulative() != 30 {
		t.Errorf("TotalCumulative = %v, want 30", s.TotalCumulative())
	}
}

// A table is the run's whole record: what its cells counted in place and
// stored on exit is what Stats reports, with the runtime residual computed
// here (clamped at zero, and only for an accounted run).
func TestProgressTableStats(t *testing.T) {
	tb := NewProgressTable(2)
	c := tb.Worker(0)
	c.CountExecuted()
	c.CountExecuted()
	c.CountDeclared(5)
	c.CountClaimed()
	c.CountStolen()
	c.CountStealFailed()
	c.Exit(10, 4, 20)
	tb.Worker(1).Exit(10, 4, 12) // residual below zero: clamped
	for _, accounted := range []bool{true, false} {
		s := tb.stats(30, accounted)
		want := Worker{
			Counters: Counters{Executed: 2, Declared: 5, Claimed: 1, Stolen: 1, StealFailed: 1},
			Current:  stf.NoTask, Task: 10, Idle: 4, Wall: 20,
		}
		if accounted {
			want.Runtime = 6
		}
		if s.Workers[0] != want || s.Workers[1].Runtime != 0 || s.Wall != 30 || s.Accounted != accounted {
			t.Errorf("Stats(accounted=%v) = %+v, want worker 0 %+v and a clamped worker 1", accounted, s, want)
		}
	}
	// The live reading is the same record without the times.
	p, s := tb.Snapshot(), tb.stats(30, true)
	if w := s.Workers[0]; p.Workers[0] != (Worker{Counters: w.Counters, Current: w.Current, WaitHist: w.WaitHist}) {
		t.Errorf("Snapshot worker 0 = %+v, want Stats' %+v without times", p.Workers[0], w)
	}
}

// LastRun's lifecycle: Progress follows the table Begin published, Stats the
// last run that ended — read on demand, so a later run's Begin does not
// disturb it.
func TestLastRun(t *testing.T) {
	var l LastRun
	if p, s := l.Progress(), l.Stats(); p.Running || p.Workers != nil || s.Workers != nil {
		t.Fatalf("before the first run: Progress %+v, Stats %+v", p, s)
	}
	tb := l.Begin(2)
	tb.Worker(1).CountExecuted()
	if p := l.Progress(); !p.Running || p.Executed() != 1 {
		t.Errorf("mid-run Progress = %+v", p)
	}
	tb.Worker(0).Exit(1, 2, 5)
	tb.Worker(1).Exit(3, 0, 4)
	l.End(6, true)
	next := l.Begin(3)
	next.Worker(2).CountExecuted()
	s := l.Stats()
	if s.Wall != 6 || !s.Accounted || len(s.Workers) != 2 || s.Executed() != 1 || s.Workers[0].Runtime != 2 {
		t.Errorf("Stats of the ended run = %+v", s)
	}
	if p := l.Progress(); !p.Running || len(p.Workers) != 3 {
		t.Errorf("Progress after the next Begin = %+v", p)
	}
}

func TestCumulativeAddsTailAsIdle(t *testing.T) {
	// A worker that finished at 10 while the run lasted 15 contributes 5
	// units of tail idle time.
	s := &Stats{
		Workers: []Worker{{Task: 10, Wall: 10}},
		Wall:    15,
	}
	_, idle, _ := s.Cumulative()
	if idle != 5 {
		t.Errorf("tail idle = %v, want 5", idle)
	}
}

// Stats and Progress share their sums: each is Workers', over one counter.
func TestCounters(t *testing.T) {
	ws := Workers{
		{Counters: Counters{Executed: 3, Declared: 7, Claimed: 1, Stolen: 1, StealFailed: 4}, WaitHist: [NumWaitBuckets]int64{1, 2}},
		{Counters: Counters{Executed: 4, Declared: 6, Claimed: 2, Stolen: 2, StealFailed: 1}, WaitHist: [NumWaitBuckets]int64{0, 3}},
	}
	s, p := &Stats{Workers: ws}, Progress{Workers: ws}
	got := [...]int64{s.Executed(), s.Declared(), s.Claimed(), s.Stolen(), s.StealFailed()}
	if want := [...]int64{7, 13, 3, 3, 5}; got != want {
		t.Errorf("sums (executed, declared, claimed, stolen, steal-failed) = %v, want %v", got, want)
	}
	if p.Executed() != s.Executed() || p.WaitHist() != s.WaitHist() || p.WaitHist() != [NumWaitBuckets]int64{1, 5} {
		t.Errorf("Progress sums %d %v, Stats %d %v", p.Executed(), p.WaitHist(), s.Executed(), s.WaitHist())
	}
	if s.NumWorkers() != 2 {
		t.Errorf("NumWorkers = %d", s.NumWorkers())
	}
}

func TestDecomposeSyntheticKernelCase(t *testing.T) {
	// The paper's synthetic setting: e_g = e_l = 1, so e = e_p · e_r.
	// Build a run where the numbers are exact: p=2, wall=10; worker time
	// fully accounted.
	s := &Stats{
		Workers: []Worker{
			{Task: 6, Idle: 2, Runtime: 2, Wall: 10},
			{Task: 6, Idle: 2, Runtime: 2, Wall: 10},
		},
		Wall: 10,
	}
	tSeq := time.Duration(12) // t(g) = τ_{p,t}: e_l = 1
	e := Decompose(tSeq, tSeq, s)
	if e.Granularity != 1 {
		t.Errorf("e_g = %v, want 1", e.Granularity)
	}
	if e.Locality != 1 {
		t.Errorf("e_l = %v, want 1", e.Locality)
	}
	if want := 12.0 / 16.0; math.Abs(e.Pipelining-want) > 1e-12 {
		t.Errorf("e_p = %v, want %v", e.Pipelining, want)
	}
	if want := 16.0 / 20.0; math.Abs(e.Runtime-want) > 1e-12 {
		t.Errorf("e_r = %v, want %v", e.Runtime, want)
	}
	if want := 12.0 / 20.0; math.Abs(e.Parallel-want) > 1e-12 {
		t.Errorf("e = %v, want %v", e.Parallel, want)
	}
}

// The defining identity of §2.3: the product of the four factors equals the
// parallel efficiency, for any run whose components are fully accounted.
func TestDecomposePropertyProductIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(8)
		wall := time.Duration(1+rng.Intn(1_000_000)) * time.Nanosecond
		s := &Stats{Wall: wall, Workers: make([]Worker, p)}
		for w := range s.Workers {
			task := time.Duration(rng.Int63n(int64(wall)))
			idle := time.Duration(rng.Int63n(int64(wall - task + 1)))
			s.Workers[w] = Worker{Task: task, Idle: idle, Runtime: wall - task - idle, Wall: wall}
		}
		tBest := time.Duration(1 + rng.Int63n(int64(wall)))
		tSeq := time.Duration(1 + rng.Int63n(int64(wall)))
		e := Decompose(tBest, tSeq, s)
		task, _, _ := s.Cumulative()
		if task == 0 {
			return true // degenerate: factors are reported as 0
		}
		return math.Abs(e.Product()-e.Parallel) < 1e-9*math.Max(1, e.Parallel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeZeroSafe(t *testing.T) {
	e := Decompose(0, 0, &Stats{Workers: make([]Worker, 2)})
	for _, v := range []float64{e.Granularity, e.Locality, e.Pipelining, e.Runtime, e.Parallel} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate decomposition produced %v", e)
		}
	}
}

func TestEfficiencyString(t *testing.T) {
	e := Efficiency{Parallel: 0.5, Granularity: 1, Locality: 1, Pipelining: 0.8, Runtime: 0.625}
	s := e.String()
	if s == "" || s[0] != 'e' {
		t.Errorf("String() = %q", s)
	}
}
