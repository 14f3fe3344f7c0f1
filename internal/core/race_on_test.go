//go:build race

package core

// raceEnabled reports that the race detector is on: it instruments and pads
// allocations and drops pooled items at random, so allocation budgets and
// pool reuse do not apply.
const raceEnabled = true
