package rio

// White-box tests for what New returns: every model's Runtime streams, and
// the fallback runtime around the non-in-order engines applies Timeout and
// Preflight to Run while its stream windows keep the timeout but bypass
// preflight.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestNewReturnsStreamerForAllModels: the public constructor's result
// implements Streamer for every model and option combination, and
// GraphRunner for the in-order model.
func TestNewReturnsStreamerForAllModels(t *testing.T) {
	for _, m := range []Model{InOrder, Centralized, Sequential} {
		for _, o := range []Options{
			{Model: m, Workers: 2},
			{Model: m, Workers: 2, Timeout: time.Minute},
			{Model: m, Workers: 2, Preflight: PreflightAccess},
			{Model: m, Workers: 2, Timeout: time.Minute, Preflight: PreflightAccess},
		} {
			rt, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := rt.(Streamer); !ok {
				t.Errorf("New(%v, timeout=%v, preflight=%v): no Streamer", m, o.Timeout, o.Preflight)
			}
			if _, ok := rt.(GraphRunner); ok != (m == InOrder) {
				t.Errorf("New(%v, timeout=%v, preflight=%v): GraphRunner = %v", m, o.Timeout, o.Preflight, ok)
			}
		}
	}
}

// TestFallbackRuntimeAppliesOptionsToRun: on the non-in-order models Run
// is bounded by Options.Timeout and vetted by Options.Preflight — a
// program reading data before its first write is rejected before any body
// executes.
func TestFallbackRuntimeAppliesOptionsToRun(t *testing.T) {
	for _, m := range []Model{Centralized, Sequential} {
		rt, err := New(Options{Model: m, Workers: 2, Timeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		err = rt.Run(1, func(s Submitter) {
			for i := 0; i < 1000; i++ {
				s.Submit(func() { time.Sleep(time.Millisecond) }, RW(0))
			}
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: run past Options.Timeout = %v, want deadline exceeded", m, err)
		}

		rt, err = New(Options{Model: m, Workers: 2, Timeout: time.Minute, Preflight: PreflightAccess})
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		err = rt.Run(1, func(s Submitter) {
			s.Submit(func() { n.Add(1) }, Read(0))
			s.Submit(func() { n.Add(1) }, Write(0))
		})
		var pf *PreflightError
		if !errors.As(err, &pf) {
			t.Errorf("%v: preflight Run(bad) = %v, want PreflightError", m, err)
		}
		if n.Load() != 0 {
			t.Errorf("%v: rejected program still executed %d tasks", m, n.Load())
		}
	}
}

// TestFallbackStreamBypassesPreflight: a window that reads a datum before
// this window's write would be rejected as a program (uninitialized read);
// preflight must not apply to stream windows, where the datum routinely
// carries an earlier window's value. In-order sessions behave the same.
func TestFallbackStreamBypassesPreflight(t *testing.T) {
	for _, m := range []Model{InOrder, Centralized, Sequential} {
		rt, err := New(Options{Model: m, Workers: 2, Timeout: time.Minute, Preflight: PreflightAccess})
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenStream(rt, 1, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		s.Submit(func() { n.Add(1) }, Read(0))
		s.Submit(func() { n.Add(1) }, Write(0))
		if err := s.Close(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if n.Load() != 2 {
			t.Errorf("%v: streamed window ran %d tasks, want 2", m, n.Load())
		}
	}
}
