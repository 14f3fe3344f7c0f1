package stf_test

import (
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
