package centralized_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rio/internal/centralized"
	"rio/internal/enginetest"
	"rio/internal/stf"
)

func TestReductionSumExact(t *testing.T) {
	const n = 500
	var sum int64
	var final int64
	e := newEngine(t, centralized.Options{Workers: 4})
	err := e.Run(1, func(s stf.Submitter) {
		for i := 1; i <= n; i++ {
			v := int64(i)
			s.Submit(func() { sum += v }, stf.Red(0))
		}
		s.Submit(func() { final = sum }, stf.R(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n + 1) / 2); final != want {
		t.Errorf("sum = %d, want %d (reduction bodies not serialized?)", final, want)
	}
}

func TestReductionRunsAreConcurrentlyDispatchable(t *testing.T) {
	// All reductions of a run become ready together (no internal edges);
	// with several workers the final sum must still be exact and reads
	// must see complete runs.
	const p = 4
	var acc int64
	var snaps []int64
	e := newEngine(t, centralized.Options{Workers: p})
	err := e.Run(1, func(s stf.Submitter) {
		for block := 0; block < 8; block++ {
			for i := 0; i < 9; i++ {
				s.Submit(func() { acc++ }, stf.Red(0))
			}
			s.Submit(func() { snaps = append(snaps, acc) }, stf.RW(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range snaps {
		if want := int64(9 * (i + 1)); v != want {
			t.Errorf("snapshot %d = %d, want %d", i, v, want)
		}
	}
}

func TestMultiReductionNoDeadlock(t *testing.T) {
	const n = 200
	var a, b int64
	var finalA, finalB int64
	e := newEngine(t, centralized.Options{Workers: 4})
	err := e.Run(2, func(s stf.Submitter) {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				s.Submit(func() { a++; b++ }, stf.Red(0), stf.Red(1))
			} else {
				s.Submit(func() { b++; a++ }, stf.Red(1), stf.Red(0))
			}
		}
		s.Submit(func() { finalA, finalB = a, b }, stf.R(0), stf.R(1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if finalA != n || finalB != n {
		t.Errorf("a=%d b=%d, want %d each", finalA, finalB, n)
	}
}

func TestPropertyReductionGraphsSequentialConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := enginetest.RandomGraphWithReductions(rng, 50, 8)
		p := 2 + rng.Intn(3)
		e, err := centralized.New(centralized.Options{Workers: p})
		if err != nil {
			return false
		}
		return enginetest.Check(e, g) == nil
	}
	cfg := &quick.Config{MaxCount: 80}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
