//go:build race

package core

// Under the race detector sync.Pool drops items at random, so pooled
// scratch is not reused reliably and allocation budgets do not hold.
func init() { raceEnabled = true }
