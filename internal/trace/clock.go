package trace

import "time"

// epoch is the origin of every Stamp. time.Now records a monotonic reading
// beside the wall time, and time.Since subtracts against it.
var epoch = time.Now()

// Stamp is the one clock reading the engines time with: the monotonic time
// elapsed since a process-wide epoch. The difference of two stamps is the
// duration between them, whatever the wall clock did in between — a step
// of the system time moves neither — and taking one costs a single
// monotonic clock read, where time.Now reads the wall clock as well. A
// timed section is therefore two reads (Stamp before, Stamp after), not
// the three of time.Now + time.Since. Stamps compare only with stamps of
// the same process.
func Stamp() time.Duration { return time.Since(epoch) }
