package rio

// White-box tests of the stream's shape cache.

import (
	"reflect"
	"testing"

	"rio/internal/stf"
)

// TestStreamShapeCollisionIsAMiss: Window.Fingerprint is a fast mix, not a
// collision-resistant digest, so the cache may hold, under a window's key,
// a program compiled from a window of another structure. Each row plants
// exactly that — shape A's cached program under shape B's fingerprint — and
// flushes B: the hit must be refused (a miss is counted), B must replay
// through a program of its own (the result matches the Sequential model's
// over the same two windows) and the entry must now hold B's shape.
// Without the comparison in shapeFor, B's task table would replay through
// A's streams, which know nothing of B's cross-worker dependencies.
func TestStreamShapeCollisionIsAMiss(t *testing.T) {
	const numData = 3
	type shape [][]Access
	rows := []struct {
		name string
		a, b shape
	}{
		{
			// A is two private chains (every access elided under the cyclic
			// mapping); B hands every datum back and forth between the workers.
			name: "structure",
			a:    shape{{RW(0)}, {RW(1)}, {RW(0)}, {RW(1)}},
			b:    shape{{RW(0)}, {Read(0), RW(1)}, {Read(1), RW(0)}, {Read(0), RW(1)}},
		},
		{
			// Same data everywhere; task 1 only reads datum 0 in A and writes it in B.
			name: "mode only",
			a:    shape{{RW(0)}, {Read(0), RW(1)}, {Read(0), RW(2)}, {Read(0), Read(1), RW(2)}},
			b:    shape{{RW(0)}, {RW(0), RW(1)}, {Read(0), RW(2)}, {Read(0), Read(1), RW(2)}},
		},
	}
	// Order-sensitive on purpose: a task folds what it reads into what it writes.
	kernel := func(vals []int64) Kernel {
		return func(t *Task, _ WorkerID) {
			sum := int64(t.I + 1)
			for _, a := range t.Accesses {
				if a.Mode.Reads() {
					sum += vals[a.Data]
				}
			}
			for _, a := range t.Accesses {
				if a.Mode.Writes() {
					vals[a.Data] = vals[a.Data]*31 + sum
				}
			}
		}
	}
	record := func(st *Stream, sh shape) {
		for i, acc := range sh {
			st.Task(0, i, 0, 0, acc...)
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if len(row.a) != len(row.b) {
				t.Fatal("rows must keep the task count")
			}
			ref, err := New(Options{Model: Sequential})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int64, numData)
			rs, err := OpenStream(ref, numData, StreamOptions{Kernel: kernel(want)})
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range []shape{row.a, row.b} {
				record(rs, sh)
				if err := rs.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := rs.Close(); err != nil {
				t.Fatal(err)
			}

			eng, err := NewEngine(Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int64, numData)
			st, err := eng.Stream(numData, StreamOptions{Kernel: kernel(got)})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			record(st, row.a)
			if err := st.Drain(); err != nil {
				t.Fatal(err)
			}
			winB := stf.NewWindow(numData)
			for _, acc := range row.b {
				if _, err := winB.Add(nil, 0, 0, 0, 0, acc); err != nil {
					t.Fatal(err)
				}
			}
			if len(st.shapes) != 1 {
				t.Fatalf("after window A: %d cached shapes, want 1", len(st.shapes))
			}
			for key, cpA := range st.shapes {
				delete(st.shapes, key)
				st.shapes[winB.Fingerprint()] = cpA // the planted collision
			}

			record(st, row.b)
			if err := st.Drain(); err != nil {
				t.Fatal(err)
			}
			if hits, misses, entries := st.CacheStats(); hits != 0 || misses != 2 || entries != 1 {
				t.Errorf("hits, misses, entries = %d, %d, %d, want 0, 2, 1: the planted entry was trusted", hits, misses, entries)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("data after windows A, B = %v, Sequential gives %v", got, want)
			}
			if cp := st.shapes[winB.Fingerprint()]; cp == nil || !winB.SameShape(cp.Tasks) {
				t.Error("the entry under B's key does not hold B's shape")
			}

			// The replaced entry is B's from here on: a plain hit.
			record(st, row.b)
			if err := st.Drain(); err != nil {
				t.Fatal(err)
			}
			if hits, misses, _ := st.CacheStats(); hits != 1 || misses != 2 {
				t.Errorf("after B again: hits, misses = %d, %d, want 1, 2", hits, misses)
			}
		})
	}
}
