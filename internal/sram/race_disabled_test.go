//go:build !race

package sram

// raceEnabled reports whether the race detector is instrumenting this
// build; its slowdown makes the full-population pins too slow to run.
const raceEnabled = false
