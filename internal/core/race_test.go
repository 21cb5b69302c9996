//go:build race

package core

// raceEnabled reports that the race detector is on. Its runtime drops a
// random share of sync.Pool puts, so pooled objects are re-allocated and
// allocation counts stop describing the program.
const raceEnabled = true
