// Fixture for ctxflow's spawn rule: untracked spinners fail; WaitGroup-
// tracked, done-aware, and channel-draining goroutines pass.
package server

import (
	"fmt"
	"sync"
)

func Spawn(done chan struct{}, work chan int) {
	var wg sync.WaitGroup

	go func() { // want `goroutine is neither WaitGroup-tracked`
		for {
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		heavy()
	}()

	go func() {
		<-done
	}()

	go drain(work)

	go fmt.Println("started") // want `cannot see into`

	//lint:ignore ctxflow runs once and exits; nothing to track
	go heavy()
}

func heavy() {}

func drain(work chan int) {
	for range work {
	}
}
