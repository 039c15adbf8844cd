//go:build race

package server

// Under the race detector sync.Pool drops items at random, so allocation
// budgets do not hold.
func init() { raceEnabled = true }
