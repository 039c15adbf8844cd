// Overnight: the full CWC story in one run. Six phones plug in at 30%
// battery; an overnight batch (prime scans, word counts, photo blurs) is
// scheduled across them; while the tasks execute, each phone's emulated
// battery charges and the MIMD throttler periodically pauses the work so
// computing never delays the charge (§4.3). Battery time is accelerated
// 1200x, so the "night" passes in a few wall seconds.
//
//	go run ./examples/overnight
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"cwc/internal/cluster"
	"cwc/internal/tasks"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	c, err := cluster.Start(ctx, cluster.Options{
		ChargingTimeScale: 1200, // 1 wall second = 20 battery minutes
		ChargingStartPct:  30,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()
	if err := c.Master.MeasureBandwidths(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("22:30 — %d phones plugged in at 30%% battery, batch submitted\n", len(c.Workers))

	rng := rand.New(rand.NewSource(12))
	var jobIDs []int
	for k := 0; k < 4; k++ {
		id, err := c.Master.Submit(tasks.PrimeCount{}, tasks.GenIntegers(128, 500000, rng), false)
		if err != nil {
			log.Fatal(err)
		}
		jobIDs = append(jobIDs, id)
	}
	for k := 0; k < 4; k++ {
		id, err := c.Master.Submit(tasks.WordCount{Word: "inventory"}, tasks.GenText(128, rng), false)
		if err != nil {
			log.Fatal(err)
		}
		jobIDs = append(jobIDs, id)
	}
	for k := 0; k < 3; k++ {
		img, err := tasks.GenImageKB(32, rng)
		if err != nil {
			log.Fatal(err)
		}
		id, err := c.Master.Submit(tasks.Blur{}, img, true)
		if err != nil {
			log.Fatal(err)
		}
		jobIDs = append(jobIDs, id)
	}

	report, err := c.Master.RunRound(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d jobs done in %v wall time (%d completed)\n",
		len(jobIDs), report.Wall.Round(time.Millisecond), len(report.CompletedJobs))

	pauses := 0
	for i, w := range c.Workers {
		n := w.Stats().ThrottlePauses
		fmt.Printf("  phone %d: battery %5.1f%%, throttle pauses %d\n", i, w.BatteryPercent(), n)
		pauses += n
	}
	if pauses > 0 {
		fmt.Println("the MIMD throttler paused task execution to protect charging")
	}
	missing := 0
	for _, id := range jobIDs {
		if _, ok := c.Master.Result(id); !ok {
			missing++
		}
	}
	if missing > 0 {
		log.Fatalf("%d jobs missing results", missing)
	}
	fmt.Println("every job completed despite throttling — computing while charging")
}
