//go:build race

package replica

// Under the race detector sync.Pool drops items at random and growing a
// slice allocates a scratch copy, so allocation budgets do not hold.
func init() { raceEnabled = true }
