//go:build !race

package validator

const raceEnabled = false
