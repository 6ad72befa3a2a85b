//go:build race

package serve

// raceEnabled: the race detector is on, so sync.Pool drops a share of
// what is put back and allocation counts measure the instrumentation.
const raceEnabled = true
