// Fixture for the ctxflow analyzer: blocking ops on daemon-goroutine
// paths with and without a cancellation alternative.
package server

import "time"

type S struct {
	work chan int
	out  chan int
	done chan struct{}
}

// Start spawns the daemons; everything reachable from here is checked.
func (s *S) Start() {
	go s.loop()
	go s.sleeper()      // want `goroutine is neither WaitGroup-tracked`
	go s.helperCaller() // want `goroutine is neither WaitGroup-tracked`
	go func() {         // want `goroutine is neither WaitGroup-tracked`
		s.out <- 1 // want `blocking send to s\.out in func literal in Start has no cancellation path`
	}()
}

func (s *S) loop() {
	v := <-s.work // want `blocking receive from s\.work in loop has no cancellation path`
	_ = v

	// A multi-way select always has an alternative arm: fine.
	select {
	case v := <-s.work:
		_ = v
	case <-s.done:
		return
	}

	// Receives from cancellation and deadline sources are fine bare.
	<-s.done
	t := time.NewTimer(time.Second)
	<-t.C
	<-time.After(time.Second)

	// Range over a channel ends when the producer closes it: fine.
	for v := range s.work {
		_ = v
	}

	// A buffered handoff made here cannot block forever.
	ch := make(chan int, 4)
	ch <- 1

	// A single-arm select is the same as a bare op.
	select {
	case v := <-s.work: // want `blocking receive from s\.work in loop has no cancellation path`
		_ = v
	}
}

func (s *S) sleeper() {
	time.Sleep(time.Second) // want `time\.Sleep on a daemon goroutine path in sleeper cannot be cancelled`

	//lint:ignore ctxflow short settle delay bounded by the test harness
	time.Sleep(time.Millisecond)
}

// helper is reached through a call from a spawned goroutine: its
// blocking ops are daemon ops too.
func (s *S) helperCaller() {
	s.helper()
}

func (s *S) helper() {
	s.out <- 2 // want `blocking send to s\.out in helper has no cancellation path`
}

// NotSpawned is never the target of a go statement; its bare ops are
// the caller's synchronous problem, not a daemon-shutdown one.
func (s *S) NotSpawned() {
	v := <-s.work
	_ = v
}
