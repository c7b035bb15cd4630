//go:build race

package dstorm

// raceEnabled reports that the race detector is active. Under it sync.Pool
// deliberately drops a quarter of all Puts, so pool-recycling assertions do
// not hold.
const raceEnabled = true
