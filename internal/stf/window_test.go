package stf

import (
	"testing"
)

func TestWindowAddAndReset(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || w.NumData() != 3 {
		t.Fatalf("fresh window: Len=%d NumData=%d", w.Len(), w.NumData())
	}
	id, err := w.Add(func() {}, 0, 0, 0, 0, []Access{R(0), W(1)})
	if err != nil || id != 0 {
		t.Fatalf("Add = %d, %v", id, err)
	}
	id, err = w.Add(nil, 2, 1, 2, 3, []Access{RW(1)})
	if err != nil || id != 1 {
		t.Fatalf("Add = %d, %v", id, err)
	}
	if got := w.Tasks(); len(got) != 2 || got[1].Kernel != 2 || got[1].I != 1 {
		t.Fatalf("Tasks = %+v", got)
	}
	if b := w.Bodies(); b[0] == nil || b[1] != nil {
		t.Fatal("bodies not parallel to tasks")
	}
	if got := w.Touched(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Touched = %v, want [0 1]", got)
	}
	w.Reset()
	if w.Len() != 0 || len(w.Touched()) != 0 {
		t.Fatal("Reset did not clear the window")
	}
	// Recording after Reset reuses storage and re-derives touched.
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{RW(2)}); err != nil {
		t.Fatal(err)
	}
	if got := w.Touched(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Touched after reset = %v, want [2]", got)
	}
}

func TestWindowAddValidation(t *testing.T) {
	w := NewWindow(2)
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{R(2)}); err == nil {
		t.Error("out-of-range data accepted")
	}
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{{Data: 0, Mode: None}}); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{R(0), W(0)}); err == nil {
		t.Error("duplicate data accepted")
	}
	if w.Len() != 0 {
		t.Errorf("rejected Adds recorded %d tasks", w.Len())
	}
}

// TestWindowTouchedGenerationWrap: the O(1) touched-clear survives the
// uint32 generation wraparound.
func TestWindowTouchedGenerationWrap(t *testing.T) {
	w := NewWindow(2)
	w.gen = ^uint32(0) // next Reset wraps
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{RW(0)}); err != nil {
		t.Fatal(err)
	}
	w.Reset()
	if w.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", w.gen)
	}
	if _, err := w.Add(func() {}, 0, 0, 0, 0, []Access{RW(0)}); err != nil {
		t.Fatal(err)
	}
	if got := w.Touched(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Touched after wrap = %v, want [0]", got)
	}
	if got := w.Tasks()[0].Accesses; len(got) != 1 || got[0] != RW(0) {
		t.Fatalf("accesses after wrap = %v, want [RW(0)]", got)
	}
}

// TestWindowFingerprint: equal shapes hash equal regardless of bodies and
// kernel coordinates; access structure, modes, order, the task split,
// numData and task count all distinguish — in the fingerprint and, for
// everything but numData (which a task table does not carry), in SameShape.
func TestWindowFingerprint(t *testing.T) {
	shape := func(numData int, build func(w *Window)) *Window {
		w := NewWindow(numData)
		build(w)
		return w
	}
	a := shape(3, func(w *Window) {
		w.Add(func() {}, 0, 0, 0, 0, []Access{R(0), W(1)})
		w.Add(func() {}, 0, 0, 0, 0, []Access{RW(1)})
	})
	b := shape(3, func(w *Window) { // same shape, different bodies/coords/flags
		w.Add(nil, 9, 7, 8, 9, []Access{R(0), {Data: 1, Mode: WriteOnly, Idempotent: true}})
		w.Add(nil, 4, 1, 1, 1, []Access{RW(1)})
	})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same shape with different payloads hashed differently")
	}
	if !a.SameShape(b.Tasks()) || !b.SameShape(a.Tasks()) {
		t.Error("same shape with different payloads compared unequal")
	}
	variants := []struct {
		name      string
		w         *Window
		sameTasks bool
	}{
		{"different mode", shape(3, func(w *Window) {
			w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(1)})
			w.Add(nil, 0, 0, 0, 0, []Access{W(1)})
		}), false},
		{"different data", shape(3, func(w *Window) {
			w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(2)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
		}), false},
		{"different access order", shape(3, func(w *Window) {
			w.Add(nil, 0, 0, 0, 0, []Access{W(1), R(0)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
		}), false},
		{"different access count", shape(3, func(w *Window) {
			w.Add(nil, 0, 0, 0, 0, []Access{R(0)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
		}), false},
		{"extra task", shape(3, func(w *Window) {
			w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(1)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
		}), false},
		{"different numData", shape(4, func(w *Window) {
			w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(1)})
			w.Add(nil, 0, 0, 0, 0, []Access{RW(1)})
		}), true},
	}
	for _, v := range variants {
		if v.w.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s: fingerprint collided with the base shape", v.name)
		}
		if got := v.w.SameShape(a.Tasks()); got != v.sameTasks {
			t.Errorf("%s: SameShape = %v, want %v", v.name, got, v.sameTasks)
		}
	}
	// The split row proper: the same accesses in the same order, cut into
	// tasks differently.
	joined := shape(3, func(w *Window) { w.Add(nil, 0, 0, 0, 0, []Access{R(0), W(1)}) })
	split := shape(3, func(w *Window) {
		w.Add(nil, 0, 0, 0, 0, []Access{R(0)})
		w.Add(nil, 0, 0, 0, 0, []Access{W(1)})
	})
	if joined.Fingerprint() == split.Fingerprint() || joined.SameShape(split.Tasks()) {
		t.Error("[a,b] and [a][b] are the same shape")
	}
}

// TestWindowFingerprintNeighbours: no single-field edit of a 64-task window
// — any access moved to any other datum or any other mode — keeps the
// fingerprint. Deterministic, so a structural weakness of the mix (not a
// 2^-128 accident) is what a failure means.
func TestWindowFingerprintNeighbours(t *testing.T) {
	const numData, tasks = 48, 64
	base := make([][]Access, tasks)
	for i := range base {
		base[i] = []Access{R(DataID(i % numData)), RW(DataID((i*7 + 5) % numData))}
		if base[i][0].Data == base[i][1].Data {
			base[i] = base[i][:1]
		}
	}
	w := NewWindow(numData)
	fingerprint := func(shape [][]Access) [2]uint64 {
		w.Reset()
		for _, acc := range shape {
			if _, err := w.Add(nil, 0, 0, 0, 0, acc); err != nil {
				t.Fatal(err)
			}
		}
		return w.Fingerprint()
	}
	seen := map[[2]uint64]bool{fingerprint(base): true}
	for i := range base {
		for j, orig := range base[i] {
			for d := DataID(0); d < numData; d++ {
				for m := ReadOnly; m <= Reduction; m++ {
					if (d == orig.Data) == (m == orig.Mode) { // one field at a time
						continue
					}
					if d != orig.Data && len(base[i]) == 2 && base[i][1-j].Data == d {
						continue // would duplicate the task's other datum
					}
					base[i][j] = Access{Data: d, Mode: m}
					fp := fingerprint(base)
					if seen[fp] {
						t.Fatalf("task %d access %d -> %v(%d): fingerprint repeats", i, j, m, d)
					}
					seen[fp] = true
				}
			}
			base[i][j] = orig
		}
	}
}

// TestWindowCloneGraphOwnsStorage: a cloned graph survives the buffer's
// next window — Reset and re-record must not alter it — and shares no memory
// with the window or between its own tasks' access lists.
func TestWindowCloneGraphOwnsStorage(t *testing.T) {
	w := NewWindow(3)
	w.Add(func() {}, 0, 0, 0, 0, []Access{R(0), W(1)})
	w.Add(func() {}, 0, 0, 0, 0, []Access{RW(2)})
	g := w.CloneGraph("clone")
	if !w.SameShape(g.Tasks) {
		t.Fatal("clone does not have the window's shape")
	}
	for i := range g.Tasks {
		if &g.Tasks[i] == &w.Tasks()[i] || &g.Tasks[i].Accesses[0] == &w.Tasks()[i].Accesses[0] {
			t.Fatalf("clone task %d aliases the window", i)
		}
	}
	// Writing through the window's storage must not reach the clone.
	w.Tasks()[0].Accesses[1] = Access{Data: 2, Mode: Reduction}
	w.Reset()
	w.Add(func() {}, 0, 0, 0, 0, []Access{RW(0)})
	w.Add(func() {}, 0, 0, 0, 0, []Access{RW(1)})
	w.Add(func() {}, 0, 0, 0, 0, []Access{RW(2)})
	if len(g.Tasks) != 2 {
		t.Fatalf("clone has %d tasks, want 2", len(g.Tasks))
	}
	if got := g.Tasks[0].Accesses; len(got) != 2 || got[0] != R(0) || got[1] != W(1) {
		t.Fatalf("clone accesses mutated: %+v", got)
	}
	// The clone's lists are cut out of one slab; an append through one of
	// them must reallocate, not run into its neighbour.
	_ = append(g.Tasks[0].Accesses, R(2))
	if got := g.Tasks[1].Accesses; len(got) != 1 || got[0] != RW(2) {
		t.Fatalf("append through task 0 overwrote task 1: %+v", got)
	}
	// The aliasing view, by contrast, tracks the window.
	v := w.Graph("view")
	if len(v.Tasks) != 3 {
		t.Fatalf("view has %d tasks, want 3", len(v.Tasks))
	}
}

// TestWindowSlabRegrow: a window that outgrows its slab mid-recording keeps
// every earlier task's accesses intact (they stay in the array they were
// written to), and a task's list never runs into its successor's.
func TestWindowSlabRegrow(t *testing.T) {
	const numData, tasks = 8, 300
	w := NewWindow(numData)
	want := make([][]Access, tasks)
	for round := 0; round < 2; round++ { // second round: recycled slots, steady capacity
		for i := range want {
			want[i] = []Access{R(DataID(i % numData)), W(DataID((i + 1 + round) % numData))}[:1+i%2]
			if _, err := w.Add(nil, 0, i, 0, 0, want[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i, task := range w.Tasks() {
			if task.ID != TaskID(i) || task.I != i || len(task.Accesses) != len(want[i]) {
				t.Fatalf("round %d task %d = %+v", round, i, task)
			}
			for j := range want[i] {
				if task.Accesses[j] != want[i][j] {
					t.Fatalf("round %d task %d access %d = %v, want %v", round, i, j, task.Accesses[j], want[i][j])
				}
			}
		}
		_ = append(w.Tasks()[0].Accesses, RW(7))
		if got := w.Tasks()[1].Accesses[0]; got != want[1][0] {
			t.Fatalf("round %d: append through task 0 overwrote task 1: %v", round, got)
		}
		if len(w.Bodies()) != tasks {
			t.Fatalf("round %d: %d bodies, want %d", round, len(w.Bodies()), tasks)
		}
		w.Reset()
	}
}

// TestWindowCompiles: a window's cloned graph goes through the ordinary
// compiler — the streaming shape cache depends on that round trip.
func TestWindowCompiles(t *testing.T) {
	w := NewWindow(2)
	w.Add(nil, 0, 0, 0, 0, []Access{W(0)})
	w.Add(nil, 0, 1, 0, 0, []Access{R(0), W(1)})
	g := w.CloneGraph("window")
	cp, err := Compile(g, func(id TaskID) WorkerID { return WorkerID(id % 2) }, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Workers != 2 || len(cp.Tasks) != 2 {
		t.Fatalf("compiled: workers=%d tasks=%d", cp.Workers, len(cp.Tasks))
	}
}

// recordWindow is the producer's per-window work on the stream-windows
// shape: 256 one-access tasks over 32 chains, then the cache key, then the
// recycle.
func recordWindow(w *Window, accs [][]Access) [2]uint64 {
	for i := 0; i < 256; i++ {
		w.Add(nil, 0, i, i>>5, 4, accs[i&31])
	}
	fp := w.Fingerprint()
	w.Reset()
	return fp
}

func chainAccesses() [][]Access {
	accs := make([][]Access, 32)
	for c := range accs {
		accs[c] = []Access{RW(DataID(c))}
	}
	return accs
}

// TestWindowRecordDoesNotAllocate: on a warmed window, recording a full
// window, keying it and recycling it allocate nothing.
func TestWindowRecordDoesNotAllocate(t *testing.T) {
	w, accs := NewWindow(64), chainAccesses()
	recordWindow(w, accs) // warm-up: grow tasks, bodies, slab, touched
	if got := testing.AllocsPerRun(20, func() { recordWindow(w, accs) }); got != 0 {
		t.Errorf("recording a warmed window allocates %v times, want 0", got)
	}
}

var windowRecordSink [2]uint64

// BenchmarkWindowRecord: what the producer pays per task between two
// Flushes, Fingerprint and Reset included.
func BenchmarkWindowRecord(b *testing.B) {
	w, accs := NewWindow(64), chainAccesses()
	recordWindow(w, accs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windowRecordSink = recordWindow(w, accs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/256, "ns/task")
}

// shapeFromBytes decodes a byte string into a window shape over numData
// data: a count byte (0–3 accesses), then one byte per access (data in the
// high six bits, mode in the low two); a datum repeated within a task is
// skipped, so every decoded shape records cleanly.
func shapeFromBytes(b []byte, numData int) [][]Access {
	var shape [][]Access
	for len(b) > 0 && len(shape) < 48 {
		n := int(b[0] % 4)
		b = b[1:]
		acc := []Access{}
	next:
		for ; n > 0 && len(b) > 0; n-- {
			a := Access{Data: DataID(int(b[0]>>2) % numData), Mode: ReadOnly + AccessMode(b[0]&3)}
			b = b[1:]
			for _, prev := range acc {
				if prev.Data == a.Data {
					continue next
				}
			}
			acc = append(acc, a)
		}
		shape = append(shape, acc)
	}
	return shape
}

// FuzzWindowShape holds Fingerprint and SameShape — the shape cache's key
// and the check that confirms a hit — to what they promise, on arbitrary
// shapes: identity is a function of the recorded access structure alone (not
// of what the buffer held before Reset, nor of bodies, kernel selectors,
// coordinates or Idempotent flags), and every single structural edit — one
// datum, one mode, one access dropped, two tasks merged or one split —
// fails the comparison, whatever the fingerprints do.
func FuzzWindowShape(f *testing.F) {
	f.Add([]byte{1, 0, 1, 4, 1, 8}, uint64(0), uint16(0))
	f.Add([]byte{2, 1, 6, 1, 7, 0, 3, 9, 14, 19}, uint64(0xdeadbeef), uint16(0x0301))
	f.Add([]byte{3, 0, 5, 10, 2, 12, 17, 1, 20}, ^uint64(0), uint16(0x0102))
	f.Add([]byte{0, 0, 1, 3}, uint64(7), uint16(0x0203))
	f.Fuzz(func(t *testing.T, data []byte, payload uint64, edit uint16) {
		const numData = 16
		shape := shapeFromBytes(data, numData)
		record := func(w *Window, shape [][]Access, payload uint64) {
			for i, acc := range shape {
				var body TaskFunc
				if payload>>(i%64)&1 == 1 {
					body = func() {}
				}
				acc = append([]Access(nil), acc...)
				for j := range acc {
					acc[j].Idempotent = payload>>((i+j)%64)&1 == 1
				}
				k := int(payload % 1000)
				if id, err := w.Add(body, k, k+i, k-i, i, acc); err != nil || id != TaskID(i) {
					t.Fatalf("Add task %d = %d, %v", i, id, err)
				}
			}
		}
		fresh := NewWindow(numData)
		record(fresh, shape, 0)

		// A buffer that held something else — and whose generation is about
		// to wrap — records the same shape with other payloads.
		used := NewWindow(numData)
		used.gen = ^uint32(0)
		record(used, shapeFromBytes(append([]byte{3, 63, 62, 61}, data...), numData), ^payload)
		used.Reset()
		record(used, shape, payload)
		if fresh.Fingerprint() != used.Fingerprint() {
			t.Fatalf("fingerprint depends on history or payload: %x vs %x", fresh.Fingerprint(), used.Fingerprint())
		}
		if !fresh.SameShape(used.Tasks()) || !used.SameShape(fresh.Tasks()) || !used.SameShape(fresh.CloneGraph("c").Tasks) {
			t.Fatal("equal structure compared unequal")
		}
		touched := map[DataID]bool{}
		for _, acc := range shape {
			for _, a := range acc {
				touched[a.Data] = true
			}
		}
		if len(used.Touched()) != len(touched) {
			t.Fatalf("touched %v, want the %d data of the shape", used.Touched(), len(touched))
		}

		// One structural edit at the task the fuzzer picks.
		if len(shape) == 0 {
			return
		}
		edited := make([][]Access, len(shape))
		for i := range shape {
			edited[i] = append([]Access{}, shape[i]...)
		}
		i := int(edit>>8) % len(shape)
		acc := edited[i]
		switch edit & 3 {
		case 0: // one datum: move the first access to a datum the task does not use
			if len(acc) == 0 {
				return
			}
			d := acc[0].Data
		search:
			for {
				d = (d + 1) % numData
				for _, a := range acc {
					if a.Data == d {
						continue search
					}
				}
				break
			}
			acc[0].Data = d
		case 1: // one mode
			if len(acc) == 0 {
				return
			}
			acc[len(acc)-1].Mode = ReadOnly + (acc[len(acc)-1].Mode-ReadOnly+1)%4
		case 2: // one access count
			if len(acc) == 0 {
				return
			}
			edited[i] = acc[:len(acc)-1]
		case 3: // the task split: cut task i in two, or — too short — merge it into its successor
			if len(acc) >= 2 {
				edited = append(edited[:i], append([][]Access{acc[:1], acc[1:]}, edited[i+1:]...)...)
				break
			}
			if i+1 == len(shape) {
				return
			}
			for _, a := range acc {
				for _, b := range edited[i+1] {
					if a.Data == b.Data {
						return
					}
				}
			}
			edited[i+1] = append(acc, edited[i+1]...)
			edited = append(edited[:i], edited[i+1:]...)
		}
		other := NewWindow(numData)
		record(other, edited, payload)
		if other.SameShape(fresh.Tasks()) || fresh.SameShape(other.Tasks()) {
			t.Fatalf("edit %d at task %d passed the comparison: %v vs %v", edit&3, i, shape, edited)
		}
	})
}
