//go:build race

package resolver

// The race detector makes sync.Pool drop items at random, so allocation
// counts that depend on pool hits are not meaningful under -race.
const raceEnabled = true
