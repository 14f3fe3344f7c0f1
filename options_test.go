package rio_test

// Tests for the Options layout.

import (
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
