package stf_test

import (
	"testing"

	"rio/internal/stf"
)

func TestStealPolicyDefaults(t *testing.T) {
	var nilPolicy *stf.StealPolicy
	if nilPolicy.ScanBound() != stf.DefaultStealScan {
		t.Errorf("nil ScanBound = %d", nilPolicy.ScanBound())
	}
	zero := &stf.StealPolicy{}
	if zero.ScanBound() != stf.DefaultStealScan {
		t.Errorf("zero policy = scan %d", zero.ScanBound())
	}
	set := &stf.StealPolicy{MaxScan: 3}
	if set.ScanBound() != 3 {
		t.Errorf("set policy = scan %d", set.ScanBound())
	}
}

// The readiness predicate must match the get_read / get_write / get_red
// conditions mode by mode: writes need exact agreement on all three
// counters, reads ignore the read count (readers commute with each other),
// reductions accept any reduction count at or past their run start
// (members of a run commute).
func TestStealReqReady(t *testing.T) {
	w := stf.StealReq{Mode: stf.WriteOnly, LastWrite: 4, Reads: 2, Reds: 1}
	if !w.Ready(4, 2, 1) {
		t.Error("write: exact state not ready")
	}
	for _, bad := range [][3]int64{{3, 2, 1}, {4, 1, 1}, {4, 2, 0}} {
		if w.Ready(bad[0], bad[1], bad[2]) {
			t.Errorf("write: ready at %v", bad)
		}
	}

	r := stf.StealReq{Mode: stf.ReadOnly, LastWrite: 4, Reads: 2, Reds: 1}
	if !r.Ready(4, 2, 1) || !r.Ready(4, 99, 1) {
		t.Error("read: must ignore the read count")
	}
	if r.Ready(3, 2, 1) || r.Ready(4, 2, 2) {
		t.Error("read: stale write or pending reduction accepted")
	}

	red := stf.StealReq{Mode: stf.Reduction, LastWrite: 4, Reads: 2, Reds: 3, RedsBefore: 1}
	if !red.Ready(4, 2, 1) || !red.Ready(4, 2, 2) {
		t.Error("red: members of the current run must commute")
	}
	if red.Ready(4, 2, 0) || red.Ready(4, 1, 1) || red.Ready(3, 2, 1) {
		t.Error("red: earlier run, missing read or stale write accepted")
	}
}

// BuildStealMeta over the compile-test flow: owners recovered from the
// streams, victim queues in flow order, registered values hand-checked
// against one declare-semantics replay.
//
//	task 0: W(0)          — worker 0
//	task 1: R(0), W(1)    — worker 1
//	task 2: Red(2)        — worker 0
//	task 3: (no accesses) — worker 1
//	task 4: RW(1), R(0)   — worker 0
func TestBuildStealMeta(t *testing.T) {
	g := compileGraph()
	cp, err := stf.Compile(g, cyclic(2), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := stf.BuildStealMeta(cp)

	wantOwners := []stf.WorkerID{0, 1, 0, 1, 0}
	for i, w := range wantOwners {
		if m.Owners[i] != w {
			t.Errorf("owner[%d] = %d, want %d", i, m.Owners[i], w)
		}
	}
	assertQueue(t, "queue[0]", m.ByOwner[0], []int32{0, 2, 4})
	assertQueue(t, "queue[1]", m.ByOwner[1], []int32{1, 3})

	none := int64(stf.NoTask)
	wantReqs := [][]stf.StealReq{
		{{Data: 0, Mode: stf.WriteOnly, LastWrite: none}},
		{
			{Data: 0, Mode: stf.ReadOnly, LastWrite: 0},
			{Data: 1, Mode: stf.WriteOnly, LastWrite: none},
		},
		{{Data: 2, Mode: stf.Reduction, LastWrite: none}},
		{},
		{
			{Data: 1, Mode: stf.ReadWrite, LastWrite: 1},
			{Data: 0, Mode: stf.ReadOnly, LastWrite: 0, Reads: 1},
		},
	}
	for i, want := range wantReqs {
		got := m.Reqs[i]
		if len(got) != len(want) {
			t.Errorf("reqs[%d] has %d entries, want %d: %+v", i, len(got), len(want), got)
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("reqs[%d][%d] = %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// Compile rejects a task accessing the same data twice — pinned here
// because BuildStealMeta's snapshot-then-update pass additionally defends
// against it (all of a task's requirements see the pre-task counters), and
// that defense should not silently become load-bearing.
func TestBuildStealMetaDuplicateDataRejected(t *testing.T) {
	g := stf.NewGraph("dup", 1)
	g.Add(0, 0, 0, 0, stf.W(0))
	g.Add(0, 1, 0, 0, stf.R(0), stf.R(0))
	if _, err := stf.Compile(g, cyclic(2), 2, nil); err == nil {
		t.Fatal("duplicate-data task compiled; BuildStealMeta relies on its rejection")
	}
}

func assertQueue(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s = %v, want %v", name, got, want)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s = %v, want %v", name, got, want)
			return
		}
	}
}
