//go:build race

package udpengine

// The race detector instruments every access and allocates as it goes,
// so allocation counts are not meaningful under -race.
const raceEnabled = true
