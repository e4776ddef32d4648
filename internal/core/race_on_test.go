//go:build race

package core

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random share of the items put back, so allocation counts stop
// measuring the process-wide arenas.
const raceEnabled = true
