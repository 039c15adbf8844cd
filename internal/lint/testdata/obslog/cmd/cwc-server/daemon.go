// Fixture daemon binary: stdlib logging and stdout prints are banned;
// one print is suppressed.
package main

import (
	"fmt"
	"log"

	"cwc/internal/obs"
)

func Run(lg *obs.Logger) {
	log.Printf("boot")  // want `stdlib log\.Printf in daemon code`
	fmt.Println("boot") // want `fmt\.Println in daemon code`
	lg.Infof("boot")
	//lint:ignore obslog the banner is stdout payload, not logging
	fmt.Println("banner")
}
