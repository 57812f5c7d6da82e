//go:build !race

package zone_test

const raceEnabled = false
