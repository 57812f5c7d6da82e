//go:build race

package zone_test

// Allocation counts are pinned without the race detector only, as in
// dnswire and authserver.
const raceEnabled = true
