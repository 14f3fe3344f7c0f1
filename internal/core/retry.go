package core

import "rio/internal/stf"

// runAttempts executes one task body under the worker's retry policy (the
// shared attempt loop, stf.RetryPolicy.RunAttempts). It is only called
// with s.retry != nil: the per-worker recover then moves from the worker
// goroutine (where a panic aborts the whole run) down to the individual
// attempt. It returns whether the task completed; on terminal failure the
// worker's error is set to a *stf.TaskFailure and the run abort is raised
// (graceful: other workers drain their in-flight bodies).
func (s *submitter) runAttempts(id stf.TaskID, accesses []stf.Access, b body) bool {
	tf, ok := s.retry.RunAttempts(s.snaps, id, accesses,
		func() {
			s.prog.SetCurrent(id)
			s.runTimed(b)
		},
		func() bool { return s.abort.raised() },
		func(attempt int, cause any) {
			// A task in backoff executes nothing: to the watchdog it is
			// live, not stuck, and each attempt is a state of its own.
			s.prog.SetCurrent(stf.NoTask)
			s.prog.CountRetried()
			if h := s.hooks; h != nil && h.OnTaskRetry != nil {
				h.OnTaskRetry(s.worker, id, attempt, cause)
			}
		})
	switch {
	case ok:
		return true
	case tf != nil:
		s.fail(tf)
		s.abort.raise(tf, false)
	default:
		s.fail(errAborted)
	}
	return false
}
