package trace

import (
	"sync"
	"testing"

	"rio/internal/stf"
)

// TestCellPublishTable pins the cell's publication contract step by step:
// Start publishes the task it names with every execution counted so far,
// Finish counts without publishing, Publish publishes with no task current,
// Exit publishes what is pending and keeps the current task, a count past
// its 31 bits (a rebase) and task IDs past 2^32 (far) read right, and the
// two-word record the sequential and centralized engines keep reads through
// the same State and Progress.
func TestCellPublishTable(t *testing.T) {
	type want struct {
		executed int64
		current  stf.TaskID
	}
	big := stf.TaskID(lowMask)
	for _, tc := range []struct {
		name  string
		setup func(c *ProgressCell) // before the steps: position the worker's count
		steps []func(c *ProgressCell)
		want  []want // the reading after each step
	}{
		{
			name: "start, finish, start: one store carries the completion",
			steps: []func(*ProgressCell){
				func(c *ProgressCell) { c.Start(3) },
				func(c *ProgressCell) { c.Finish() },
				func(c *ProgressCell) { c.Start(4) },
				func(c *ProgressCell) { c.Finish() },
				func(c *ProgressCell) { c.Publish() },
			},
			want: []want{{0, 3}, {0, 3}, {1, 4}, {1, 4}, {2, stf.NoTask}},
		},
		{
			name: "the two-word record: a store per step",
			steps: []func(*ProgressCell){
				func(c *ProgressCell) { c.SetCurrent(9) },
				func(c *ProgressCell) { c.SetCurrent(stf.NoTask) },
				func(c *ProgressCell) { c.CountExecuted() },
				func(c *ProgressCell) { c.SetCurrent(10) },
				func(c *ProgressCell) { c.Exit(0, 0, 0) },
			},
			want: []want{{0, 9}, {0, stf.NoTask}, {1, stf.NoTask}, {1, 10}, {1, 10}},
		},
		{
			name: "exit publishes a pending completion and names a failed body",
			steps: []func(*ProgressCell){
				func(c *ProgressCell) { c.Start(0) },
				func(c *ProgressCell) { c.Finish() },
				func(c *ProgressCell) { c.Start(1) }, // then the body panics
				func(c *ProgressCell) { c.Exit(0, 0, 0) },
			},
			want: []want{{0, 0}, {0, 0}, {1, 1}, {1, 1}},
		},
		{
			name:  "the executed count crosses its 31 bits",
			setup: func(c *ProgressCell) { c.word = (countMax - 2) << countShift },
			steps: []func(*ProgressCell){
				func(c *ProgressCell) { c.Start(5) },
				func(c *ProgressCell) { c.Finish() }, // countMax-1
				func(c *ProgressCell) { c.Finish() }, // countMax: rebased, published
				func(c *ProgressCell) { c.Start(6) },
				func(c *ProgressCell) { c.Finish() },
				func(c *ProgressCell) { c.Publish() },
			},
			want: []want{{countMax - 2, 5}, {countMax - 2, 5}, {countMax, 5}, {countMax, 6}, {countMax, 6}, {countMax + 1, stf.NoTask}},
		},
		{
			name: "task IDs past 2^32, and back",
			steps: []func(*ProgressCell){
				func(c *ProgressCell) { c.Start(big - 2) },
				func(c *ProgressCell) { c.Finish() },
				func(c *ProgressCell) { c.Start(big - 1) },
				func(c *ProgressCell) { c.Start(big) },
				func(c *ProgressCell) { c.Start(1 << 40) },
				func(c *ProgressCell) { c.Publish() },
				func(c *ProgressCell) { c.Start(7) },
				func(c *ProgressCell) { c.Finish() },
				func(c *ProgressCell) { c.Exit(0, 0, 0) },
			},
			want: []want{{0, big - 2}, {0, big - 2}, {1, big - 1}, {1, big}, {1, 1 << 40}, {1, stf.NoTask}, {1, 7}, {1, 7}, {2, 7}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewProgressTable(1)
			c := tb.Worker(0)
			if n, cur := c.load(); n != 0 || cur != stf.NoTask {
				t.Fatalf("fresh cell reads (%d, %d), want (0, NoTask)", n, cur)
			}
			if tc.setup != nil {
				tc.setup(c)
			}
			for i, step := range tc.steps {
				step(c)
				n, cur := c.load()
				p, w := tb.Snapshot().Workers[0], tc.want[i]
				if n != w.executed || cur != w.current || p.Executed != w.executed || p.Current != w.current {
					t.Fatalf("step %d: cell (%d, %d), Progress (%d, %d), want (%d, %d)",
						i, n, cur, p.Executed, p.Current, w.executed, w.current)
				}
			}
		})
	}
}

// TestCellPublishFarRace reads a cell while its worker names tasks whose
// IDs do not fit the state word (2^33 apart, held by far): every reading
// must be a pair the worker published, never a count against another
// task's ID. The worker starts task k<<33 after counting k executions, so a
// reading is right exactly when its current task is NoTask or executed<<33.
func TestCellPublishFarRace(t *testing.T) {
	const n = 5000
	tb := NewProgressTable(1)
	c := tb.Worker(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := int64(0); k < n; k++ {
			c.Start(stf.TaskID(k << 33))
			c.Finish()
			if k%3 == 0 {
				c.Publish()
			}
		}
		c.Publish()
		c.Exit(0, 0, 0)
	}()
	for last := int64(-1); last < n; {
		executed, current := c.load()
		if current != stf.NoTask && current != stf.TaskID(executed<<33) {
			t.Fatalf("reading (%d, %d) pairs a count with a task it was not published with", executed, current)
		}
		if executed < last {
			t.Fatalf("executed went back from %d to %d", last, executed)
		}
		last = executed
	}
	wg.Wait()
	if executed, _ := c.load(); executed != n {
		t.Fatalf("executed %d after the worker exited, want %d", executed, n)
	}
}
