// Fixture for the lockorder analyzer: inconsistent acquisition order
// (direct and through a callee), blocking calls under a held mutex
// (direct and interprocedural), a suppression, and clean orderings.
package server

import (
	"sync"

	"cwc/internal/protocol"
)

type A struct {
	mu sync.Mutex
}

type B struct {
	mu sync.Mutex
}

type C struct {
	mu sync.Mutex
}

type S struct {
	mu   sync.Mutex
	conn *protocol.Conn
}

// aThenB and bThenA disagree on order: a cycle between A.mu and B.mu.
func aThenB(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want `acquires server\.B\.mu while holding server\.A\.mu; part of a lock-order cycle`
	b.mu.Unlock()
	a.mu.Unlock()
}

func bThenA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want `acquires server\.A\.mu while holding server\.B\.mu; part of a lock-order cycle`
	a.mu.Unlock()
	b.mu.Unlock()
}

// lockC acquires C.mu for its caller; the edge is charged to the call
// site that already holds another lock.
func lockC(c *C) {
	c.mu.Lock()
	c.mu.Unlock()
}

func aThenCallee(a *A, c *C) {
	a.mu.Lock()
	lockC(c) // want `acquires server\.C\.mu while holding server\.A\.mu; part of a lock-order cycle`
	a.mu.Unlock()
}

func cThenA(a *A, c *C) {
	c.mu.Lock()
	a.mu.Lock() // want `acquires server\.A\.mu while holding server\.C\.mu; part of a lock-order cycle`
	a.mu.Unlock()
	c.mu.Unlock()
}

// sendUnderLock blocks on the wire with the state lock held.
func (s *S) sendUnderLock(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Send(b) // want `calls cwc/internal/protocol\.Conn\.Send while holding server\.S\.mu`
}

// sendy blocks; callers holding a lock are charged at their call site.
func (s *S) sendy(b []byte) {
	s.conn.Send(b)
}

func (s *S) sendViaHelper(b []byte) {
	s.mu.Lock()
	s.sendy(b) // want `calls sendy, which may block in cwc/internal/protocol\.Conn\.Send, while holding server\.S\.mu`
	s.mu.Unlock()
}

// sendSuppressed is the documented escape hatch.
func (s *S) sendSuppressed(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockorder this send is bounded by a connection write deadline
	s.conn.Send(b)
}

// sendAfterUnlock is clean: the lock is released before the wire write.
func (s *S) sendAfterUnlock(b []byte) {
	s.mu.Lock()
	s.mu.Unlock()
	s.conn.Send(b)
}

// consistent locks D-then-E everywhere: order without a cycle is fine.
type D struct {
	mu sync.Mutex
}

type E struct {
	mu sync.Mutex
}

func deOne(d *D, e *E) {
	d.mu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	d.mu.Unlock()
}

func deTwo(d *D, e *E) {
	d.mu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	d.mu.Unlock()
}

// spawned goroutines start a fresh timeline: no edge from the caller's
// held set.
func spawned(a *A, b *B) {
	b.mu.Lock()
	go func() {
		a.mu.Lock()
		a.mu.Unlock()
	}()
	b.mu.Unlock()
}
