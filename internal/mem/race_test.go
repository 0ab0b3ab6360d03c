//go:build race

package mem

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a random share of what it is given, so pool reuse cannot be counted.
const raceEnabled = true
