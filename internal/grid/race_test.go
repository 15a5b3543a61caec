//go:build race

package grid

// raceEnabled reports a -race build, whose instrumentation allocates: the
// allocation pins skip under it.
const raceEnabled = true
