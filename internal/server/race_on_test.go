//go:build race

package server

// raceEnabled reports that the race detector is on: it instruments and pads
// allocations, so allocation ceilings do not apply.
const raceEnabled = true
