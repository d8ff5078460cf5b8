//go:build race

package fleet

// The race detector makes the runtime allocate where a normal build does
// not (sync.Pool drops pooled objects at random), so allocation budgets
// are not checked under it.
func init() { raceEnabled = true }
