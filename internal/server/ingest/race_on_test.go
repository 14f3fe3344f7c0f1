//go:build race

package ingest

// raceEnabled reports that the race detector is on: it instruments and pads
// allocations, so byte-exact allocation budgets do not apply.
const raceEnabled = true
