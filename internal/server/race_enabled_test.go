//go:build race

package server

// raceEnabled reports whether the race detector is instrumenting this
// build; its allocations make allocation-budget tests meaningless.
const raceEnabled = true
