//go:build race

package obs

// The race detector makes the runtime allocate where a normal build does
// not, so allocation budgets are not checked under it.
func init() { raceEnabled = true }
