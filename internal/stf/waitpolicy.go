package stf

// WaitPolicy selects how an engine's dependency waits trade latency for CPU
// time once the fast busy-poll phase has not resolved them. The in-order
// engine applies it to the protocol waits of Algorithm 1 (get_read /
// get_write / get_red); the centralized engine applies it to its executors'
// ready-queue pops. Every policy preserves the waits' obligations: lifecycle
// hook pairing, stall-watchdog publication, abort/cancellation
// responsiveness and idle-time accounting.
type WaitPolicy int32

const (
	// WaitAdaptive (the default) busy-polls with a per-worker spin budget
	// fed back from completed-wait durations — workers whose waits resolve
	// within the spin phase grow their budget, workers whose waits escalate
	// shrink it and park early — then yields, then parks on the data
	// object's event gate until a terminate publishes a wake.
	WaitAdaptive WaitPolicy = iota
	// WaitSpin never blocks: busy-poll, then yield-poll forever. Lowest
	// wake-up latency, burns a hardware thread per waiter; appropriate when
	// workers are pinned 1:1 to otherwise idle cores.
	WaitSpin
	// WaitPark parks on the data object's event gate right after the spin
	// budget: lowest CPU use, pays one wake on every dependency hand-off.
	// Appropriate under heavy contention or oversubscription.
	WaitPark
)

// Valid reports whether p names a policy. The value 3 was the removed
// sleep-ladder policy; engines reject it like any other unknown value.
func (p WaitPolicy) Valid() bool { return p >= WaitAdaptive && p <= WaitPark }

// String names the policy as used in reports and benchmark labels.
func (p WaitPolicy) String() string {
	switch p {
	case WaitAdaptive:
		return "adaptive"
	case WaitSpin:
		return "spin"
	case WaitPark:
		return "park"
	}
	return "unknown"
}
