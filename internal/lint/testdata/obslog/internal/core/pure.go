// Fixture pure package: wall clocks and unseeded randomness break
// deterministic replay.
package core

import (
	"math/rand" // want `pure package cwc/internal/core imports math/rand`
	"time"
)

func Jitter() float64 {
	_ = time.Now() // want `time\.Now in pure package cwc/internal/core`
	return rand.Float64()
}
