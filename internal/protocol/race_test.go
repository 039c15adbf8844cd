//go:build race

package protocol

// Under the race detector sync.Pool drops items at random and the
// runtime allocates for its own bookkeeping, so allocation budgets do not
// hold.
func init() { raceEnabled = true }
