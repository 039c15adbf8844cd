// Fixture for the locks analyzer: guarded-field accesses with and
// without the mutex held, assumed-locked helpers, fresh locals,
// suppressions, and malformed driver directives.
package server

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
	m  int // guarded by nosuch -- want `"guarded by nosuch" names no sibling sync.Mutex/RWMutex field`
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) bad() int {
	return c.n // want `c\.n is guarded by mu but accessed without c\.mu held`
}

func (c *counter) deferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// incLocked runs under the caller's lock (the Locked suffix).
func (c *counter) incLocked() {
	c.n++
}

// peek is fine: caller holds c.mu.
func (c *counter) peek() int {
	return c.n
}

func fresh() *counter {
	c := &counter{}
	c.n = 1 // freshly built local: not shared yet, no diagnostic
	return c
}

func suppressed(c *counter) int {
	//lint:ignore locks read is racy by design in this fixture
	return c.n
}

func guardedBranch(c *counter) int {
	c.mu.Lock()
	if c.n > 10 {
		c.mu.Unlock()
		return 0
	}
	n := c.n // the terminating branch above does not leak its unlock
	c.mu.Unlock()
	return n
}

func spawn(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `c\.n is guarded by mu but accessed without c\.mu held`
	}()
}

func driverErrors(c *counter) {
	//lint:ignore locks
	// want `malformed lint:ignore`
	c.mu.Lock()
	//lint:ignore nosuchanalyzer because reasons
	// want `lint:ignore names unknown analyzer "nosuchanalyzer"`
	c.mu.Unlock()
}

func staleIgnores(c *counter) {
	//lint:ignore locks stale: nothing on the next line needs it
	c.mu.Lock() // want `lint:ignore locks suppresses nothing`
	//lint:ignore locks,unused kept while the migration note still cites it
	c.mu.Unlock()
}

// An embedded field's annotation guards what is promoted through it.
type state struct{ jobs int }

type holder struct {
	mu     sync.Mutex
	*state // guarded by mu
}

func (h *holder) bad() int {
	return h.jobs // want `h\.jobs is guarded by mu but accessed without h\.mu held`
}
