//go:build race

package cache

// Allocation pins are about the normal build. Like the other packages'
// pins they skip under -race, where sync.Pool drops items at random.
const raceEnabled = true
