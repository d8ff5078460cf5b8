//go:build race

package netsim

// The race detector makes the runtime allocate where a normal build does
// not, so allocation budgets are not checked under it.
func init() { raceEnabled = true }
