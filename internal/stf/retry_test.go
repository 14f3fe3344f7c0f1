package stf_test

import (
	"slices"
	"testing"
	"time"

	"rio/internal/stf"
)

// The shared attempt loop, one row per way it ends. The body increments the
// datum it writes and fails its first `failures` attempts, so the rollback
// (value restored before every retry and after a terminal failure) and the
// attempt accounting are both visible.
func TestRunAttempts(t *testing.T) {
	permanent := "permanent"
	for _, tc := range []struct {
		name       string
		policy     stf.RetryPolicy
		noSnapshot bool // the written datum cannot be captured
		failures   int  // attempts that panic before one succeeds
		cause      any  // what failing attempts panic with
		abortAfter int  // aborted() turns true after this many retried() calls (0 = never)

		completed    bool
		wantFailure  bool
		wantAttempts int
		wantRetried  int
		wantVal      int
	}{
		{name: "first try", policy: stf.RetryPolicy{MaxAttempts: 3},
			completed: true, wantAttempts: 1, wantVal: 1},
		{name: "transient then success", policy: stf.RetryPolicy{MaxAttempts: 3, Backoff: time.Microsecond}, failures: 2,
			completed: true, wantAttempts: 3, wantRetried: 2, wantVal: 1},
		{name: "exhausted", policy: stf.RetryPolicy{MaxAttempts: 3}, failures: 5,
			wantFailure: true, wantAttempts: 3, wantRetried: 2},
		{name: "permanent", failures: 5, cause: permanent,
			policy:      stf.RetryPolicy{MaxAttempts: 3, Classify: func(c any) bool { return c != permanent }},
			wantFailure: true, wantAttempts: 1},
		{name: "unsnapshottable is one shot", policy: stf.RetryPolicy{MaxAttempts: 3}, noSnapshot: true, failures: 1,
			wantFailure: true, wantAttempts: 1, wantVal: 1},
		{name: "abort during backoff", policy: stf.RetryPolicy{MaxAttempts: 3, Backoff: time.Hour}, failures: 5, abortAfter: 1,
			wantAttempts: 1, wantRetried: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			val, attempts, retried := 0, 0, 0
			snaps := stf.SnapshotFuncs{
				Can: func(stf.DataID) bool { return !tc.noSnapshot },
				Save: func(stf.DataID) func() {
					saved := val
					return func() { val = saved }
				},
			}
			cause := tc.cause
			if cause == nil {
				cause = "transient"
			}
			failure, completed := tc.policy.RunAttempts(snaps, 7, []stf.Access{stf.RW(0)},
				func() {
					attempts++
					val++
					if attempts <= tc.failures {
						panic(cause)
					}
				},
				func() bool { return tc.abortAfter > 0 && retried >= tc.abortAfter },
				func(attempt int, c any) {
					retried++
					if attempt != retried || c != cause {
						t.Errorf("retried(%d, %v) on retry %d of cause %v", attempt, c, retried, cause)
					}
				})
			if completed != tc.completed || (failure != nil) != tc.wantFailure {
				t.Fatalf("completed = %v, failure = %v", completed, failure)
			}
			if failure != nil && (failure.Task != 7 || failure.Attempts != tc.wantAttempts || failure.Cause != cause) {
				t.Errorf("failure = %+v, want task 7 after %d attempt(s) of %v", failure, tc.wantAttempts, cause)
			}
			if attempts != tc.wantAttempts || retried != tc.wantRetried {
				t.Errorf("%d attempts, %d retried; want %d, %d", attempts, retried, tc.wantAttempts, tc.wantRetried)
			}
			if val != tc.wantVal {
				t.Errorf("datum = %d after the loop, want %d", val, tc.wantVal)
			}
		})
	}
}

// The shared frontier constructor, one row per thing an engine hands it:
// a resume checkpoint's carry-over, logs that repeat IDs across workers
// (and overlap the carry-over), and the failed set.
func TestNewPartialResult(t *testing.T) {
	ids := func(v ...stf.TaskID) []stf.TaskID { return v }
	for _, tc := range []struct {
		name          string
		tasks         int
		resume        *stf.Checkpoint
		completed     []stf.TaskID
		failed        []stf.TaskID
		wantCompleted []stf.TaskID
		wantFailed    []stf.TaskID
		wantSkipped   []stf.TaskID
	}{
		{name: "nothing ran", tasks: 2, wantSkipped: ids(0, 1)},
		{name: "unsorted log", tasks: 4, completed: ids(2, 0, 1), failed: ids(3),
			wantCompleted: ids(0, 1, 2), wantFailed: ids(3)},
		{name: "resume carry-over", tasks: 5, resume: &stf.Checkpoint{Tasks: 5, Completed: ids(0, 1)},
			completed: ids(3, 2), wantCompleted: ids(0, 1, 2, 3), wantSkipped: ids(4)},
		{name: "duplicates across workers", tasks: 6, resume: &stf.Checkpoint{Tasks: 6, Completed: ids(0, 2)},
			completed: ids(4, 2, 1, 4, 0), failed: ids(5, 3, 5),
			wantCompleted: ids(0, 1, 2, 4), wantFailed: ids(3, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var carried []stf.TaskID
			if tc.resume != nil {
				carried = append(carried, tc.resume.Completed...)
			}
			log := append([]stf.TaskID(nil), tc.completed...)
			pr := stf.NewPartialResult(tc.tasks, tc.resume, tc.completed, tc.failed)
			if pr.Tasks != tc.tasks {
				t.Errorf("Tasks = %d, want %d", pr.Tasks, tc.tasks)
			}
			if !slices.Equal(pr.Completed, tc.wantCompleted) {
				t.Errorf("Completed = %v, want %v", pr.Completed, tc.wantCompleted)
			}
			if !slices.Equal(pr.Failed, tc.wantFailed) {
				t.Errorf("Failed = %v, want %v", pr.Failed, tc.wantFailed)
			}
			if got := pr.Skipped(); !slices.Equal(got, tc.wantSkipped) {
				t.Errorf("Skipped = %v, want %v", got, tc.wantSkipped)
			}
			// The caller's logs and the checkpoint being resumed are inputs,
			// not scratch space.
			if !slices.Equal(tc.completed, log) {
				t.Errorf("completed log reordered: %v", tc.completed)
			}
			if tc.resume != nil && !slices.Equal(tc.resume.Completed, carried) {
				t.Errorf("resume checkpoint mutated: %v", tc.resume.Completed)
			}
		})
	}
}
