package core

// SetWaitLimits sets e's wait escalation lengths for its next runs: the
// busy-poll budget a worker's first wait starts from, and the number of
// Gosched polls before a wait parks (0 parks right after the spin phase).
// Tests call it to reach the park phase faster than the default escalation.
func SetWaitLimits(e *Engine, spin, yield int) { e.spinSeed, e.yieldIters = spin, yield }
