package rio_test

// Tests for the grouped Options layout (Options.Fault).

import (
	"errors"
	"sync/atomic"
	"testing"

	"rio"
)

// TestOptionsGroupedTuningRuns: every model runs a dependent pair of tasks
// on options that set nothing but the model and the worker count — the
// engines' one wait needs no tuning.
func TestOptionsGroupedTuningRuns(t *testing.T) {
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		rt, err := rio.New(rio.Options{Model: m, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var got int64
		err = rt.Run(2, func(s rio.Submitter) {
			s.Submit(func() { atomic.StoreInt64(&got, 40) }, rio.Write(0))
			s.Submit(func() { atomic.AddInt64(&got, 2) }, rio.Read(0), rio.Write(1))
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if atomic.LoadInt64(&got) != 42 {
			t.Errorf("%v: got %d, want 42", m, got)
		}
	}
}

// TestOptionsGroupedFaultRuns: retry configured through Options.Fault
// actually retries — functional proof the grouped fields reach the engine,
// not just compile.
func TestOptionsGroupedFaultRuns(t *testing.T) {
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		var attempts atomic.Int64
		saved := make(map[rio.DataID]int64)
		vals := make([]int64, 1)
		snaps := rio.SnapshotFuncs{
			Save: func(d rio.DataID) func() {
				v := vals[d]
				return func() { saved[d] = v; vals[d] = v }
			},
		}
		rt, err := rio.New(rio.Options{
			Model:   m,
			Workers: 2,
			Fault: rio.FaultOptions{
				Retry:     &rio.RetryPolicy{MaxAttempts: 3},
				Snapshots: snaps,
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		err = rt.Run(1, func(s rio.Submitter) {
			s.Submit(func() {
				vals[0]++
				if attempts.Add(1) < 3 {
					panic("transient")
				}
			}, rio.RW(0))
		})
		if err != nil {
			t.Fatalf("%v: run with grouped Fault: %v", m, err)
		}
		if attempts.Load() != 3 {
			t.Errorf("%v: %d attempts, want 3 (grouped Retry not wired)", m, attempts.Load())
		}
		if vals[0] != 1 {
			t.Errorf("%v: vals[0] = %d, want 1 (rollback through grouped Snapshots)", m, vals[0])
		}
	}
}

// TestOptionsFaultCheckpoint: Fault.Checkpoint alone (no retry policy)
// enables checkpointing.
func TestOptionsFaultCheckpoint(t *testing.T) {
	rt, err := rio.New(rio.Options{Workers: 2, Fault: rio.FaultOptions{Checkpoint: true}})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(1, func(s rio.Submitter) {
		s.Submit(func() {}, rio.Write(0))
		s.Submit(func() { panic("fail") }, rio.RW(0))
	})
	var pe *rio.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("checkpointing run did not return PartialError: %v", err)
	}
	if len(pe.Result.Checkpoint().Completed) != 1 {
		t.Errorf("checkpoint frontier = %v, want task 0", pe.Result.Checkpoint().Completed)
	}
}
