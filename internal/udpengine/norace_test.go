//go:build !race

package udpengine

const raceEnabled = false
