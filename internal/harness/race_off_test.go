//go:build !race

package harness

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
